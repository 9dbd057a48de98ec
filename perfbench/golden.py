"""Record the golden outputs every benchmark run is checked against.

    python3 perfbench/golden.py            # all workloads, all seed slots
    python3 perfbench/golden.py --check    # compare instead of writing

For each workload and each fleet seed slot (``workloads.SEED_SLOTS``)
one untimed repetition runs and its ``fleet_digest`` and
``attacked_devices_alarmed`` are written to ``golden.json``.  Re-record
only when a change is meant to alter verdicts; a performance change
must leave every digest as it is.

``--check`` also runs the shard-invariance test: ``serve-sharded-attack``
on two shards must give the digest recorded for one shard.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import GOLDEN, WORK, Bench
from workloads import POOL_SHARDS, SEED_SLOTS, WORKLOADS


def run_once(bench: Bench, *extra: str) -> dict:
    if bench.spec["cache"] == "warm":
        prepared, _, _ = bench.rep("prepare")
        if prepared is None:
            raise SystemExit(f"{bench.workload}: preparing failed")
    result, _, _ = bench.rep("run", *extra)
    if result is None:
        raise SystemExit(f"{bench.workload} seed {bench.seed}: repetition failed")
    return result["report"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="golden-", dir=WORK)
    mismatches = 0
    try:
        for workload in args.workload or sorted(WORKLOADS):
            for slot in range(SEED_SLOTS):
                bench = Bench(workload, slot, Path(scratch), time.monotonic())
                report = run_once(bench)
                intervals = WORKLOADS[workload]["config"]["intervals"]
                found = bench.problems({"report": report}, slot, intervals, full=args.check)
                entry = {
                    "fleet_digest": report["fleet_digest"],
                    "attacked_devices_alarmed": report["attacked_devices_alarmed"],
                    "emitted": report["emitted"],
                }
                print(workload, slot, json.dumps(entry), "; ".join(found) or "ok")
                mismatches += bool(found)
                golden.setdefault(workload, {})[str(slot)] = entry
        if args.check:
            bench = Bench("serve-sharded-attack", 0, Path(scratch), time.monotonic())
            two_shards = run_once(bench, "--shards", str(POOL_SHARDS))
            same = two_shards["fleet_digest"] == bench.golden["0"]["fleet_digest"]
            print("shard invariance (1 vs 2 shards):", "ok" if same else "DIFFERENT")
            mismatches += not same
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.check:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

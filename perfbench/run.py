"""Serve-level benchmark: entry point.

    python3 perfbench/run.py --workload serve-steady --seed 3 --seconds 20 --trace 0

Runs one workload from ``workloads.py`` as closed-loop batch jobs:
every repetition is a fresh interpreter (``rep.py``) that calls the
public ``repro.serve.FleetService(ServeConfig(...)).run()``, and the
simulator produces intervals as fast as the program scores them.

``--trace 0`` runs one set-up probe (a fresh-interpreter one-interval
run, timed from outside) per ``REPS_PER_PROBE`` full repetitions until
``--seconds`` have passed and each kind ran its minimum number of
times, then reports the end-to-end metrics as medians.  ``--trace 1``
cycles through untraced, traced and traced two-shard (pool)
repetitions and reports the per-layer metrics of the traced ones.  The
``k``-th repetition of each kind uses fleet seed
``(seed + k) % SEED_SLOTS``.  Every repetition's outputs are checked
(ledger balance, golden fleet digest, attacked devices alarmed).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files, the warm
artifact cache, raw spans and per-run results live under
``perfbench/.work/``.  BLAS thread settings are inherited, never set.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import POOL_SHARDS, WORKLOADS, fleet_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

#: Stop starting repetitions this long after start-up, whatever the
#: minimums say, so one run always ends well inside three minutes.
DEADLINE_S = 120.0
RSS_POLL_S = 0.05
#: A run makes at least this many full repetitions and set-up probes
#: whatever ``--seconds`` says, and one probe per ``REPS_PER_PROBE``
#: repetitions: ``setup_s`` has the widest bound, so most of the time
#: goes to the repetitions behind ``intervals_per_s``.
MIN_REPS = 4
MIN_SETUP_PROBES = 2
REPS_PER_PROBE = 2


def src_digest() -> str:
    """Content hash of ``src/``: names the warm cache of this source tree."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_jiffies() -> tuple:
    """(steal, total) CPU time of the machine, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def git_sha():
    """HEAD of the repository this benchmark sits in; None outside git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- peak memory of a process tree ------------------------------------------


def _children(pid: int) -> list:
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    kids = []
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(k) for k in handle.read().split())
        except OSError:
            pass
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class DescendantPeaks(threading.Thread):
    """Polls the peak RSS (VmHWM) of every descendant of ``pid``.

    The repetition reports its own peak exactly (``ru_maxrss``); this
    adds the shard children, whatever start method spawned them.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: dict = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(RSS_POLL_S):
            stack = _children(self.pid)
            while stack:
                pid = stack.pop()
                self.peaks[pid] = max(self.peaks.get(pid, 0), _hwm_kb(pid))
                stack.extend(_children(pid))

    def stop(self) -> int:
        self.done.set()
        self.join()
        return sum(self.peaks.values())


# -- one repetition ------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, scratch: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.scratch = scratch
        self.started = started
        self.warm_cache = WORK / "cache" / src_digest()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        # Nothing may fall back to the user's cache directory.
        self.env["REPRO_CACHE_DIR"] = str(WORK / "cache" / "unused")
        self.env["TMPDIR"] = str(scratch)
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = golden.get(workload, {})
        self.count = 0

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def cache_dir(self) -> Path:
        if self.spec["cache"] == "warm":
            return self.warm_cache
        return Path(tempfile.mkdtemp(prefix="cold-cache-", dir=self.scratch))

    def rep(self, mode: str, *extra: str, seed=None, cache_dir=None, peaks=False):
        """Run ``rep.py`` once; returns (result or None, wall_s, children_kb)."""
        self.count += 1
        out = self.scratch / f"rep-{self.count}.json"
        cache_dir = cache_dir or self.cache_dir()
        command = [
            sys.executable, str(HERE / "rep.py"), "--mode", mode,
            "--workload", self.workload,
            "--seed", str(self.seed if seed is None else seed),
            "--cache-dir", str(cache_dir), "--out", str(out), *extra,
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=self.env, start_new_session=True)
        watcher = DescendantPeaks(proc.pid) if peaks else None
        if watcher is not None:
            watcher.start()
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up
        # to 50 ms, which would round every set-up probe to that step.
        killer = threading.Timer(max(self.time_left() + 40.0, 5.0), kill_group, (proc.pid,))
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        if code == -signal.SIGKILL:
            code = None
        children_kb = watcher.stop() if watcher is not None else 0
        if self.spec["cache"] == "cold" and mode != "prepare":
            shutil.rmtree(cache_dir, ignore_errors=True)
        if code != 0 or not out.is_file():
            print(f"# {mode} repetition failed (exit {code})", file=sys.stderr)
            return None, wall, children_kb
        return json.loads(out.read_text()), wall, children_kb

    def problems(self, result, seed: int, intervals: int, full: bool) -> list:
        """Output checks of one repetition run with ``seed`` (empty when it passed)."""
        if result is None:
            return ["crashed"]
        report = result["report"]
        golden = self.golden.get(str(fleet_seed(seed)))
        found = []
        expected = report["devices"] * intervals
        ledger = report["scored"] + report["skipped"] + report["dropped"]
        if not report["emitted"] == ledger == expected:
            found.append(
                f"ledger: emitted {report['emitted']}, scored+skipped+dropped "
                f"{ledger}, devices x intervals {expected}"
            )
        if full:
            if golden is None:
                found.append("no golden digest recorded for this workload and seed")
            else:
                if report["fleet_digest"] != golden["fleet_digest"]:
                    found.append("fleet_digest differs from the golden digest")
                if report["attacked_devices_alarmed"] < golden["attacked_devices_alarmed"]:
                    found.append("fewer attacked devices alarmed than recorded")
        return found


def median(values):
    return statistics.median(values) if values else 0.0


def next_kind(record, trace: bool) -> str:
    """The kind of the next repetition."""
    reps = record["reps"]
    if trace:
        kinds = ("plain", "traced", "pool")
        return kinds[len(reps) % len(kinds)]
    probes = len(record["setup_probes"])
    return "probe" if probes * REPS_PER_PROBE <= len(reps) else "plain"


def has_enough(record, trace: bool) -> bool:
    reps = record["reps"]
    if trace:
        return {r["kind"] for r in reps} == {"plain", "traced", "pool"}
    return (
        len(reps) >= MIN_REPS and len(record["setup_probes"]) >= MIN_SETUP_PROBES
    )


def measure(bench: Bench, seconds: float, trace: bool):
    """Run repetitions until ``seconds`` have passed; returns the run's record."""
    intervals = bench.spec["config"]["intervals"]
    devices = bench.spec["config"]["devices"]
    warm = bench.spec["cache"] == "warm"
    prepared, _, _ = bench.rep("prepare" if warm else "import")
    if prepared is None:
        raise SystemExit("preparing the workload failed")
    record = {
        "reps": [], "setup_probes": [], "problems": [], "attempted": 0, "failed": 0,
        "cache": (
            f"warm: filled before timing ({prepared['cache_hits']} artifacts were cached)"
            if warm else "cold: a new empty cache per repetition"
        ),
    }
    trace_dir = bench.scratch / "spans"
    trace_dir.mkdir()
    trace_file = WORK / "trace" / f"{bench.workload}-seed{bench.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    steal0, total0 = cpu_jiffies()
    first = True
    started = collections.Counter()
    while bench.time_left() > 0:
        if has_enough(record, trace) and time.monotonic() - t0 >= seconds:
            break
        kind = next_kind(record, trace)
        seed = bench.seed + started[kind]
        started[kind] += 1
        if kind == "probe":
            result, wall, _ = bench.rep("setup", seed=seed)
            found = bench.problems(result, seed, 1, full=False)
            if not found:
                record["setup_probes"].append(wall)
        else:
            extra = ["--env"] if first else []
            if kind != "plain":
                extra += ["--trace-dir", str(trace_dir)]
            if kind == "traced":
                extra += ["--trace-file", str(trace_file)]
            if kind == "pool":
                extra += ["--shards", str(POOL_SHARDS)]
            result, wall, children_kb = bench.rep(
                "run", *extra, seed=seed, peaks=kind == "plain"
            )
            first = False
            found = bench.problems(result, seed, intervals, full=True)
            record["attempted"] += devices * intervals
            if found:
                record["failed"] += devices * intervals
            else:
                report = result["report"]
                record["failed"] += report["skipped"] + report["dropped"]
                record["reps"].append({
                    "kind": kind,
                    "seed": report["seed"],
                    "intervals_per_s": report["emitted"] / result["run_s"],
                    "peak_rss_mb": (result["rss_self_kb"] + children_kb) / 1024.0,
                    "import_s": result["import_s"],
                    "layers": result.get("layers"),
                })
                if "env" in result:
                    record["env"] = result["env"]
        record["problems"].extend(found)
        if found:
            break
    steal1, total1 = cpu_jiffies()
    # Time the hypervisor gave this machine's CPUs to other guests: the
    # first thing to look at when a run reads slow.
    record["cpu_steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    return record


def end_to_end(record) -> dict:
    reps = record["reps"]
    return {
        "intervals_per_s": median([r["intervals_per_s"] for r in reps]),
        "setup_s": median(record["setup_probes"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


#: Per-layer metrics taken from the pool (two-shard) repetitions.
POOL_METRICS = ("serve.shard_wall_s", "serve.shard_skew")


def per_layer(record) -> dict:
    def of(kind):
        return [r for r in record["reps"] if r["kind"] == kind]

    def rate(kind):
        return median([r["intervals_per_s"] for r in of(kind)])

    traced, pool = of("traced"), of("pool")
    names = traced[0]["layers"].keys() if traced else ()
    metrics = {
        name: median([r["layers"][name] for r in (pool if name in POOL_METRICS else traced)])
        for name in names
    }
    metrics["process.import_s"] = median([r["import_s"] for r in record["reps"]])
    metrics["serve.two_shard_speedup"] = rate("pool") / rate("traced") if rate("traced") else 0.0
    metrics["trace.overhead_ratio"] = rate("traced") / rate("plain") if rate("plain") else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serve-level benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "serve" / "service.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, scratch, started)
        record = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    values = per_layer(record) if args.trace else end_to_end(record)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    failed_share = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    correct = not record["problems"] and bool(record["reps"])
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "fleet_seed": fleet_seed(args.seed),
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "cache": record["cache"],
        "cpu_steal_share": record["cpu_steal_share"],
        "env": record.get("env"),
        "reps": len(record["reps"]),
        "setup_probes": len(record["setup_probes"]),
        "problems": sorted(set(record["problems"])),
    }
    print("# context " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{args.workload:22s} {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"{args.workload:22s} {'failed_share':36s} {failed_share:14.6g} ratio "
        f"({record['failed']}/{record['attempted']} device-intervals)"
    )
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"context": context, "metrics": metrics, "failed_share": failed_share,
                    "reps": record["reps"], "setup_probes": record["setup_probes"]}, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

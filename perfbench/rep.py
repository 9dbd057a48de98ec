"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition and reads the JSON
it writes to ``--out``.  Modes:

* ``import`` — import the package and stop (compiles bytecode);
* ``prepare`` — resolve the workload's detectors for every fleet seed
  slot through the artifact cache in ``--cache-dir`` (fills a warm
  cache; untimed);
* ``setup`` — the workload with one interval per device; ``run.py``
  times the whole process from outside as the set-up probe;
* ``run`` — the workload as configured, through the public
  ``repro.serve.FleetService(ServeConfig(...)).run()``.

With ``--trace-dir`` the run is traced (see ``tracing.py``) and the
output carries the per-layer metrics.  The repository root is the
parent of this script's directory; ``src/`` there is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import SEED_SLOTS, WORKLOADS, fleet_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def blas_info() -> dict:
    """BLAS vendor and the thread count it runs with in this process."""
    import ctypes

    import numpy as np

    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = function()
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def serve_config(workload: str, seed: int, cache_dir: str, intervals=None, shards=None):
    from repro.serve import RecalibrationPolicy, ServeConfig

    fields = dict(WORKLOADS[workload]["config"])
    recalibrate = fields.pop("recalibrate", False)
    if intervals is not None:
        fields["intervals"] = intervals
    if shards is not None:
        fields["shards"] = shards
    return ServeConfig(
        seed=fleet_seed(seed),
        cache_dir=cache_dir,
        recalibration=RecalibrationPolicy(enabled=recalibrate),
        **fields,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("import", "prepare", "setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--trace-file")
    parser.add_argument("--shards", type=int)
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    from repro.serve import DetectorRegistry, FleetService
    from repro.pipeline.cache import ArtifactCache

    import_s = time.perf_counter() - started

    recorder = None
    if args.trace_dir:
        import tracing

        recorder = tracing.SpanRecorder(Path(args.trace_dir))
        tracing.install(recorder)

    config = serve_config(
        args.workload,
        args.seed,
        args.cache_dir,
        intervals=1 if args.mode == "setup" else None,
        shards=args.shards,
    )
    result = {"import_s": import_s}
    if args.mode == "import":
        pass
    elif args.mode == "prepare":
        result["cache_hits"] = 0
        for slot in range(SEED_SLOTS):
            config = serve_config(args.workload, slot, args.cache_dir)
            specs = FleetService(config).build_specs()
            registry = DetectorRegistry(
                root_seed=config.seed, train=config.train, cache=ArtifactCache(config.cache_dir)
            )
            registry.fleet_payload((spec.profile for spec in specs), modality=config.modality)
            result["cache_hits"] += registry.cache_hits
    else:
        started = time.perf_counter()
        report = FleetService(config).run()
        result["run_s"] = time.perf_counter() - started
        result["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["report"] = {
            key: getattr(report, key)
            for key in (
                "devices", "shards", "intervals", "seed", "emitted", "scored",
                "skipped", "dropped", "alarms", "devices_attacked",
                "attacked_devices_alarmed", "devices_recalibrated", "fleet_digest",
            )
        }
        result["report"]["bus_dropped"] = (report.bus or {}).get("dropped", 0)
        if recorder is not None:
            spans = recorder.collect()
            result["layers"] = tracing.layer_metrics(spans, config.shards)
            result["layers"]["serve.bus_dropped"] = result["report"]["bus_dropped"]
            if args.trace_file:
                Path(args.trace_file).write_text(
                    json.dumps({"fields": tracing.FIELDS, "spans": spans})
                )
    if args.env:
        result["env"] = environment()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

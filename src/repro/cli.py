"""Command-line interface.

A small operational front-end so the library is usable without writing
Python — the workflow a deployment would actually script:

    # collect normal behaviour and train a detector
    python -m repro.cli train --runs 4 --intervals 200 --out detector.npz

    # score a fresh normal run against it
    python -m repro.cli monitor --detector detector.npz --intervals 100

    # replay one of the paper's attack scenarios and score it
    python -m repro.cli attack --detector detector.npz --scenario rootkit

    # run the full evaluation grid across 4 worker processes, with
    # simulation/training stages memoised in the artifact cache
    python -m repro.cli experiments --jobs 4 --replicas 2

    # inspect or empty the on-disk artifact cache
    python -m repro.cli cache stats
    python -m repro.cli cache clear

    # inspect a single simulated heat map
    python -m repro.cli heatmap --interval-index 5

    # time the hot-path kernels (reference vs vectorized backends)
    # and record the perf trajectory in BENCH_kernels.json
    python -m repro.cli bench --smoke --check

    # score every attack scenario against every detector column and
    # compare with the declared expected outcomes (docs/attacks.md)
    python -m repro.cli matrix --sizing ci --out conformance_matrix.json

    # pretty-print a metrics manifest written with --metrics-out
    python -m repro.cli stats metrics.json

Observability: ``train``, ``monitor``, ``attack``, ``experiments``
and ``serve`` accept ``--trace PATH`` (Chrome trace-event JSON —
open in chrome://tracing or https://ui.perfetto.dev; a ``.jsonl``
extension selects the line-delimited stream instead),
``--metrics-out PATH`` (a run manifest with config, seeds, versions
and a metrics snapshot) and ``--log PATH`` (schema-versioned
structured JSON log lines; see ``docs/observability.md``).  Any of
these flags enables :mod:`repro.obs` for the command.  ``serve``
additionally takes ``--metrics-dir``/``--metrics-interval`` (periodic
per-shard OpenMetrics snapshot files — the feed for ``repro top``)
and ``--health-out`` (a readiness summary asserted by CI).
``monitor``/``heatmap`` also take ``--json`` for machine-readable
output on stdout.

Exit codes (stable; scripts may rely on them):

* ``0`` — success; for ``monitor``/``attack``, the run completed with
  **no alarm**;
* ``1`` — I/O or input-file error (missing detector/manifest, bad
  JSON, unwritable ``--trace``/``--metrics-out`` directory);
* ``2`` — usage error (argparse convention);
* ``3`` — ``monitor`` or ``attack`` **raised an alarm** (the
  configured number of consecutive intervals scored below θ_p).
  An attack run that detects its attack therefore exits 3 — pipelines
  asserting detection should expect it;
* ``4`` — ``experiments`` completed degraded: one or more grid jobs
  exhausted their retries (``--max-retries``) or timed out
  (``--job-timeout``).  Completed results are still printed and the
  failure manifest is written to ``--failures-out`` if given.  With
  ``--fail-fast`` the first terminal job failure aborts the grid with
  this same exit code;
* ``5`` — ``bench --check`` found a perf regression: a vectorized
  kernel fell below its speedup floor against the reference oracle.
  ``BENCH_kernels.json`` is still written for inspection.
* ``6`` — ``serve`` completed **degraded**: one or more interval
  records were dropped under backpressure (``drop-oldest`` or ``shed``
  policy with the queue overflowing).  The fleet report is still
  written/printed.
* ``7`` — ``matrix`` found at least one **diverging cell**: a scenario
  × detector combination whose observed outcome differs from the
  outcome the attack class declares.  The matrix JSON is still
  written/printed so the divergence can be inspected.
* ``8`` — ``serve`` aborted on a **bus stall**: a
  block-policy publish waited longer than ``--stall-timeout`` on a
  subscriber that stopped draining its queue (a deadlocked or wedged
  consumer, as opposed to a merely slow one, which would only stall).

The single source of truth for these values is the :class:`ExitCode`
enum below; the ``EXIT_*`` module constants are aliases kept for
backwards compatibility.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys

import numpy as np

from . import kernels, obs
from .conformance.matrix import SIZINGS as _SIZINGS
from .conformance.matrix import (
    build_matrix,
    interval_alert_floor,
    interval_detect,
)
from .faults import FaultPlan
from .hw.securecore import AnalysisTimingModel
from .learn.detector import LN10, MhmDetector
from .learn.ensemble import ENSEMBLE_RULES, MODALITIES, EnsembleConfig
from .learn.metrics import alarm_streaks
from .pipeline.cache import ArtifactCache
from .pipeline.experiments import (
    PAPER_SCALE,
    QUICK_SCALE,
    get_reference_artifacts,
    run_scenario_experiment,
    score_scenario,
)
from .pipeline.runner import ExperimentRunner, JobFailedError, build_grid_jobs
from .pipeline.stages import SCENARIOS as _SCENARIOS
from .pipeline.stages import run_scenario_cached
from .pipeline.training import collect_training_data, train_detector
from .serve import (
    SERVE_TRACE_CATEGORIES,
    FleetReport,
    FleetService,
    FleetTrainSpec,
    ServeConfig,
    TelemetryConfig,
    write_health,
)
from .serve import BusStallError, RecalibrationPolicy
from .serve.bus import BUS_POLICIES as _BUS_POLICIES
from .sim.platform import Platform, PlatformConfig
from .viz.ascii import render_heatmap, render_series
from .viz.tables import format_metrics, format_table

__all__ = [
    "main",
    "build_parser",
    "ExitCode",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_ALARM",
    "EXIT_JOB_FAILURES",
    "EXIT_BENCH_REGRESSION",
    "EXIT_SERVE_DEGRADED",
    "EXIT_MATRIX_DIVERGENCE",
]


class ExitCode(enum.IntEnum):
    """Every exit code the CLI can return — the single source of truth.

    Scripts may rely on these values; changing one is a breaking
    interface change.  ``tests/test_cli.py`` pins each member.
    """

    #: Clean completion (monitor/attack: no alarm raised).
    OK = 0
    #: I/O or input-file error (missing detector/manifest, bad JSON,
    #: unwritable output directory).
    IO_ERROR = 1
    #: Invalid invocation (argparse errors use the same code).
    USAGE = 2
    #: monitor/attack raised an alarm.
    ALARM = 3
    #: experiments: one or more grid jobs failed terminally (grid
    #: itself completed; surviving results were produced).
    JOB_FAILURES = 4
    #: bench --check: a vectorized kernel fell below its speedup floor.
    BENCH_REGRESSION = 5
    #: serve: intervals were dropped under backpressure.
    SERVE_DEGRADED = 6
    #: matrix: an observed cell outcome diverged from its declaration.
    MATRIX_DIVERGENCE = 7
    #: serve: a block-policy publish timed out on a
    #: subscriber that stopped draining (BusStallError).
    BUS_STALL = 8


# Backwards-compatible aliases (public API since PR 1).
EXIT_OK = ExitCode.OK
EXIT_USAGE = ExitCode.USAGE
EXIT_ALARM = ExitCode.ALARM
EXIT_JOB_FAILURES = ExitCode.JOB_FAILURES
EXIT_BENCH_REGRESSION = ExitCode.BENCH_REGRESSION
EXIT_SERVE_DEGRADED = ExitCode.SERVE_DEGRADED
EXIT_MATRIX_DIVERGENCE = ExitCode.MATRIX_DIVERGENCE

_SCALES = {"quick": QUICK_SCALE, "paper": PAPER_SCALE}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write simulator events as Chrome trace-event JSON "
        "(.jsonl extension: line-delimited events instead)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a run manifest (config, seed, version, host, metrics)",
    )
    parser.add_argument(
        "--log",
        metavar="PATH",
        help="write structured JSON log lines (schema-versioned events; "
        "see docs/observability.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory Heat Map anomaly detection (DAC 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="collect normal MHMs and train a detector")
    train.add_argument("--runs", type=int, default=4, help="independent boots")
    train.add_argument(
        "--intervals", type=int, default=200, help="MHMs collected per boot"
    )
    train.add_argument(
        "--validation", type=int, default=200, help="held-out MHMs for thresholds"
    )
    train.add_argument("--gaussians", type=int, default=5, help="GMM components J")
    train.add_argument("--restarts", type=int, default=5, help="EM restarts")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="output .npz path")
    _add_obs_arguments(train)

    monitor = sub.add_parser("monitor", help="score a fresh normal run")
    monitor.add_argument("--detector", required=True, help="trained .npz detector")
    monitor.add_argument("--intervals", type=int, default=100)
    monitor.add_argument("--seed", type=int, default=12345)
    monitor.add_argument("--quantile", type=float, default=1.0, help="theta_p (%%)")
    monitor.add_argument(
        "--alarm-consecutive",
        type=_positive_int,
        default=3,
        help="consecutive abnormal intervals that raise an alarm (exit 3)",
    )
    monitor.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    _add_obs_arguments(monitor)

    attack = sub.add_parser("attack", help="replay a paper scenario and score it")
    attack.add_argument("--detector", required=True)
    attack.add_argument(
        "--scenario", choices=sorted(_SCENARIOS), default="rootkit"
    )
    attack.add_argument("--pre", type=int, default=100)
    attack.add_argument("--during", type=int, default=100)
    attack.add_argument("--seed", type=int, default=54321)
    attack.add_argument("--quantile", type=float, default=1.0)
    attack.add_argument(
        "--alarm-consecutive",
        type=_positive_int,
        default=1,
        help="consecutive abnormal intervals that raise an alarm (exit 3); "
        "1 reproduces the paper's raw per-interval verdicts",
    )
    attack.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    _add_obs_arguments(attack)

    detect = sub.add_parser(
        "detect",
        help="replay a scenario and score it with a chosen modality "
        "(MHM densities, syscall contexts, or the ensemble)",
    )
    detect.add_argument(
        "--scenario", choices=sorted(_SCENARIOS), default="mimicry"
    )
    detect.add_argument(
        "--modality", choices=MODALITIES, default="ensemble",
        help="which detector(s) decide the verdict (default ensemble)",
    )
    detect.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick",
        help="training/scenario sizing (default quick)",
    )
    detect.add_argument(
        "--quantile", type=float, default=1.0, metavar="P",
        help="combined false-positive budget in percent (default 1.0)",
    )
    detect.add_argument(
        "--mhm-share", type=float, default=0.5,
        help="ensemble: fraction of the budget given to the MHM "
        "modality (default 0.5)",
    )
    detect.add_argument(
        "--ensemble-rule", choices=ENSEMBLE_RULES, default="or",
        help="ensemble fusion rule (default or)",
    )
    detect.add_argument("--seed", type=int, default=0, help="training seed")
    detect.add_argument(
        "--scenario-seed", type=int, default=999,
        help="fresh platform seed for the scenario boot",
    )
    detect.add_argument(
        "--cache-dir", help="artifact cache root (default ~/.cache/repro)"
    )
    detect.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )
    detect.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    _add_obs_arguments(detect)

    experiments = sub.add_parser(
        "experiments",
        help="run a scenario/ablation grid in parallel with artifact caching",
    )
    experiments.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick",
        help="training/scenario sizing (paper = full Section 5.2 protocol)",
    )
    experiments.add_argument(
        "--scenario",
        action="append",
        choices=sorted(_SCENARIOS),
        help="scenario(s) to run (repeatable; default: all)",
    )
    experiments.add_argument(
        "--replicas", type=int, default=1,
        help="independent scenario boots per grid point",
    )
    experiments.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-job seeds derive from it via SeedSequence.spawn",
    )
    experiments.add_argument(
        "--granularity",
        help="comma-separated MHM granularity sweep, e.g. 2048,4096",
    )
    experiments.add_argument(
        "--jobs", "-j", type=int, default=1, help="worker processes"
    )
    experiments.add_argument(
        "--cache-dir", help="artifact cache root (default ~/.cache/repro)"
    )
    experiments.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )
    experiments.add_argument(
        "--max-retries", type=int, default=2,
        help="re-attempts per failed job before it lands in the failure "
        "manifest (default 2)",
    )
    experiments.add_argument(
        "--job-timeout", type=float, metavar="SECONDS",
        help="per-attempt wall-clock budget; overrunning attempts are "
        "abandoned and retried",
    )
    experiments.add_argument(
        "--fail-fast", action="store_true",
        help="abort the grid on the first terminal job failure instead of "
        "degrading to the failure manifest",
    )
    experiments.add_argument(
        "--failures-out", metavar="PATH",
        help="write the structured failure manifest (failures.json) here",
    )
    experiments.add_argument(
        "--fault-plan", metavar="PATH",
        help="JSON fault-injection plan for resilience drills "
        "(see docs/faults.md for the schema)",
    )
    experiments.add_argument("--train-runs", type=int, help="override training boots")
    experiments.add_argument(
        "--train-intervals", type=int, help="override MHMs per training boot"
    )
    experiments.add_argument(
        "--validation", type=int, help="override held-out calibration MHMs"
    )
    experiments.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    _add_obs_arguments(experiments)

    bench = sub.add_parser(
        "bench",
        help="time hot-path kernels (reference vs vectorized) "
        "and write BENCH_kernels.json",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="CI-sized problem sizes (seconds, not minutes)",
    )
    bench.add_argument(
        "--out", default="BENCH_kernels.json", metavar="PATH",
        help="perf-trajectory JSON output (default BENCH_kernels.json)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="minimum timed vectorized calls per round (best per call "
        "wins; calls repeat until they span the round's reference shot)",
    )
    bench.add_argument(
        "--seed", type=int, default=2015, help="fixture/e2e seed"
    )
    bench.add_argument(
        "--check", action="store_true",
        help="exit 5 if any kernel falls below its speedup floor "
        "(>=3x counting, >=5x GMM log density, >=50x PCA projection, "
        "reconstruction and EM responsibilities, >=25x fused fleet "
        "scoring, >=30x end-to-end train/detect, never slower elsewhere)",
    )
    bench.add_argument(
        "--json", action="store_true", help="print the report to stdout too"
    )

    cache = sub.add_parser("cache", help="inspect or empty the artifact cache")
    cache.add_argument("cache_action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir", help="artifact cache root (default ~/.cache/repro)"
    )

    heatmap = sub.add_parser("heatmap", help="render one simulated MHM")
    heatmap.add_argument("--interval-index", type=int, default=0)
    heatmap.add_argument("--seed", type=int, default=2015)
    heatmap.add_argument("--width", type=int, default=92)
    heatmap.add_argument(
        "--json", action="store_true", help="dump the MHM as JSON instead of ASCII"
    )

    serve = sub.add_parser(
        "serve",
        help="run the fleet-scale streaming detection service "
        "(N devices, K shard workers, batched scoring)",
    )
    serve.add_argument(
        "--devices", "-n", type=int, default=8, help="simulated devices"
    )
    serve.add_argument(
        "--shards", "-k", type=int, default=1, help="shard worker processes"
    )
    serve.add_argument(
        "--duration", type=float, metavar="SECONDS",
        help="simulated seconds per device (converted to monitoring "
        "intervals at the paper's 10 ms cadence)",
    )
    serve.add_argument(
        "--intervals", type=int,
        help="monitoring intervals per device (overrides --duration; "
        "default 100)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-device platform seeds derive from it via "
        "SeedSequence.spawn, so results are shard-count independent",
    )
    serve.add_argument(
        "--policy", choices=_BUS_POLICIES, default="block",
        help="backpressure policy when a shard's scoring queue is full "
        "(default block: producers stall, nothing is dropped; "
        "drop-oldest evicts the oldest pending record; shed discards "
        "the incoming one)",
    )
    serve.add_argument(
        "--cadences", metavar="C1,C2,...",
        help="heterogeneous device cadences: device i "
        "emits every Ci fleet steps, cycled over the list "
        "(default: every device every step)",
    )
    serve.add_argument(
        "--recalibrate", action="store_true",
        help="apply drift-suggested thresholds through the "
        "proposal -> canary trial -> commit state machine",
    )
    serve.add_argument(
        "--canary-intervals", type=int, default=24, metavar="N",
        help="shadow-trial length per recalibration proposal, in the "
        "device's scored records (default 24)",
    )
    serve.add_argument(
        "--stall-timeout", type=float, default=30.0, metavar="SECONDS",
        help="abort with exit code 8 when a "
        "block-policy publish waits longer than this on a stuck "
        "subscriber (default 30; 0 disables)",
    )
    serve.add_argument(
        "--failures-out", metavar="PATH",
        help="write poisoned-subscriber failure records (JSON) here "
        "after the run",
    )
    serve.add_argument(
        "--capacity", type=int, default=128,
        help="bounded scoring-queue capacity per shard; a capacity "
        "below the records one fleet step emits throttles scoring "
        "(default 128)",
    )
    serve.add_argument(
        "--batch", type=int, default=32,
        help="scoring batch size = fixed kernel batch shape (default 32)",
    )
    serve.add_argument(
        "--attacks", type=int, default=0, metavar="N",
        help="inject attacks on N devices (spread evenly, scenarios cycled)",
    )
    serve.add_argument(
        "--scenario", action="append", choices=sorted(_SCENARIOS),
        help="attack scenario(s) to cycle over attacked devices "
        "(repeatable; default all)",
    )
    serve.add_argument(
        "--profiles", default="baseline,rtos,netload",
        help="comma-separated device profiles to mix (default "
        "baseline,rtos,netload)",
    )
    serve.add_argument(
        "--quantile", type=float, default=1.0, metavar="P",
        help="θ_p calibration quantile in percent (default 1.0)",
    )
    serve.add_argument(
        "--modality", choices=MODALITIES, default="mhm",
        help="scoring modality: mhm (default), contexts, or ensemble "
        "(both, budget split per --mhm-share)",
    )
    serve.add_argument(
        "--mhm-share", type=float, default=0.5,
        help="ensemble: fraction of the --quantile budget given to the "
        "MHM modality (default 0.5)",
    )
    serve.add_argument(
        "--ensemble-rule", choices=ENSEMBLE_RULES, default="or",
        help="ensemble fusion rule (default or)",
    )
    serve.add_argument(
        "--alarm-consecutive", type=int, default=3,
        help="consecutive sub-θ intervals required for an alarm (default 3)",
    )
    serve.add_argument(
        "--train-runs", type=int, default=2,
        help="training boots per device profile (default 2)",
    )
    serve.add_argument(
        "--train-intervals", type=int, default=80,
        help="MHMs per training boot (default 80)",
    )
    serve.add_argument(
        "--validation", type=int, default=80,
        help="held-out calibration MHMs per profile (default 80)",
    )
    serve.add_argument(
        "--cache-dir", help="artifact cache root (default ~/.cache/repro)"
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="train profile detectors without the on-disk cache",
    )
    serve.add_argument(
        "--report-out", metavar="PATH", help="write the fleet report JSON here"
    )
    serve.add_argument(
        "--fault-plan", metavar="PATH",
        help="JSON fault-injection plan (site serve.score degrades "
        "matching records to SKIPPED verdicts)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the full fleet report JSON on stdout",
    )
    serve.add_argument(
        "--metrics-dir", metavar="DIR",
        help="write periodic per-shard metrics snapshots (JSON + "
        "OpenMetrics text) into DIR — the feed for `repro top`",
    )
    serve.add_argument(
        "--metrics-interval", type=int, default=100, metavar="STEPS",
        help="fleet steps between metrics snapshots (default 100)",
    )
    serve.add_argument(
        "--health-out", metavar="PATH",
        help="write a health/readiness summary JSON after the run",
    )
    _add_obs_arguments(serve)

    fleet_report = sub.add_parser(
        "fleet-report",
        help="render a fleet report JSON written by `serve --report-out`",
    )
    fleet_report.add_argument("report_json", help="fleet report JSON file")
    fleet_report.add_argument(
        "--json", action="store_true",
        help="echo the report as canonical JSON instead of tables",
    )

    stats = sub.add_parser(
        "stats", help="pretty-print a manifest written with --metrics-out"
    )
    stats.add_argument("metrics_json", help="manifest / metrics snapshot JSON file")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a serve run's --metrics-dir "
        "snapshot files",
    )
    top.add_argument(
        "metrics_dir", help="snapshot directory a `serve --metrics-dir` writes"
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (CI-friendly)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default 2s)",
    )
    top.add_argument(
        "--width", type=int, default=100, help="frame width (default 100)"
    )

    matrix = sub.add_parser(
        "matrix",
        help="score every attack scenario against every detector column "
        "and diff against the declared expected outcomes",
    )
    matrix.add_argument(
        "--sizing", choices=sorted(_SIZINGS), default="ci",
        help="matrix sizing preset (tiny = test-suite scale)",
    )
    matrix.add_argument(
        "--scenario",
        action="append",
        choices=sorted(_SCENARIOS),
        help="scenario row(s) to score (repeatable; default: all registered)",
    )
    matrix.add_argument(
        "--out", metavar="PATH", help="write the matrix JSON document here"
    )
    matrix.add_argument(
        "--json", action="store_true",
        help="emit the matrix JSON on stdout instead of tables",
    )
    matrix.add_argument(
        "--cache-dir", help="artifact cache root (default ~/.cache/repro)"
    )
    matrix.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )

    return parser


# ----------------------------------------------------------------------
# Observability plumbing
# ----------------------------------------------------------------------
def _obs_requested(args) -> bool:
    return bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "log", None)
        or getattr(args, "metrics_dir", None)
    )


def _check_output_paths(args) -> None:
    """Fail before the run, not after it: artefact dirs must exist."""
    import os

    for attr in ("trace", "metrics_out", "log", "health_out"):
        path = getattr(args, attr, None)
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                raise OSError(
                    f"--{attr.replace('_', '-')} directory does not exist: {parent}"
                )


def _obs_finish(args, command: str, config=None, seed=None, intervals=None, **extra):
    """Write the trace and/or manifest the user asked for."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        tracer = obs.tracer()
        if str(trace_path).endswith(".jsonl"):
            tracer.write_jsonl(trace_path)
        else:
            tracer.write_chrome(trace_path)
    manifest_path = getattr(args, "metrics_out", None)
    if manifest_path:
        obs.RunInfo.collect(
            command=command,
            config=config,
            seed=seed,
            intervals=intervals,
            metrics=obs.metrics().snapshot(),
            trace_events=len(obs.tracer()),
            **extra,
        ).write(manifest_path)


class _FaultPlanError(ValueError):
    """A --fault-plan file failed validation (usage error, not I/O)."""


def _load_fault_plan(path):
    """Parse a ``--fault-plan`` JSON file (shared by experiments/serve).

    I/O and JSON syntax errors propagate (``main`` maps them to exit
    code 1); schema violations raise :class:`_FaultPlanError` so
    handlers can return the usage exit code.
    """
    if not path:
        return None
    with open(path) as fh:
        plan_dict = json.load(fh)
    try:
        return FaultPlan.from_dict(plan_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise _FaultPlanError(f"invalid fault plan {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_train(args) -> int:
    config = PlatformConfig()
    data = collect_training_data(
        config,
        runs=args.runs,
        intervals_per_run=args.intervals,
        validation_intervals=args.validation,
        base_seed=100 + args.seed,
    )
    detector = train_detector(
        data,
        num_gaussians=args.gaussians,
        em_restarts=args.restarts,
        seed=args.seed,
    )
    detector.save(args.out)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["training MHMs", data.num_training],
                ["validation MHMs", data.num_validation],
                ["eigenmemories L'", detector.num_eigenmemories_],
                ["variance retained", f"{detector.eigenmemory.retained_variance_:.4%}"],
                ["GMM components J", detector.num_gaussians],
                ["theta_1 (log10)", f"{detector.log10_threshold(1.0):.2f}"],
                ["saved to", args.out],
            ],
            title="trained detector",
        )
    )
    _obs_finish(
        args,
        "train",
        config=config,
        seed=args.seed,
        intervals=args.runs * args.intervals + args.validation,
        detector_out=str(args.out),
        eigenmemories=detector.num_eigenmemories_,
        gaussians=detector.num_gaussians,
    )
    return EXIT_OK


def _window_verdicts(
    series, log_densities, detector, theta, args, interval_ns
) -> dict:
    """Judge one scored MHM window: flags at ``theta``, SKIPPED verdicts
    and the K-consecutive alarms, plus their telemetry.

    A non-finite density (an unscorable MHM) is a SKIPPED verdict: it
    never flags and resets the alarm streak
    (:func:`~repro.learn.metrics.alarm_streaks`).  Counters and trace
    events are emitted once per window from the batch verdicts, on
    simulated time (each interval's boundary).
    """
    skipped = ~np.isfinite(log_densities)
    flags = (log_densities < theta) & ~skipped
    streaks = alarm_streaks(flags, skipped)
    indices = [heat_map.interval_index for heat_map in series]
    boundaries = [heat_map.start_time_ns + interval_ns for heat_map in series]
    alarms = [
        {
            "interval_index": indices[row],
            "time_ns": boundaries[row],
            "consecutive": args.alarm_consecutive,
            "log_density": float(log_densities[row]),
        }
        for row in np.flatnonzero(streaks == args.alarm_consecutive)
    ]
    analysis_us = (
        AnalysisTimingModel().analysis_time_us(
            series.spec.num_cells,
            detector.num_eigenmemories_,
            detector.num_gaussians,
        )
        if len(series)
        else 0.0
    )

    registry = obs.metrics()
    registry.counter("monitor.intervals_scored").inc(int((~skipped).sum()))
    registry.counter("monitor.intervals_flagged").inc(int(flags.sum()))
    registry.counter("monitor.intervals_skipped").inc(int(skipped.sum()))
    registry.counter("monitor.alarms").inc(len(alarms))
    tracer = obs.tracer()
    if tracer.enabled:
        for row, index in enumerate(indices):
            if skipped[row]:
                tracer.instant(
                    "monitor.skipped",
                    boundaries[row],
                    category="monitor",
                    args={
                        "interval_index": index,
                        "reason": "non-finite interval density",
                    },
                )
                continue
            tracer.instant(
                "detector.verdict",
                boundaries[row],
                category="detector",
                args={
                    "interval_index": index,
                    "log_density": float(log_densities[row]),
                    "anomalous": bool(flags[row]),
                    "analysis_model_us": analysis_us,
                },
            )
        for alarm in alarms:
            tracer.instant(
                "monitor.alarm",
                alarm["time_ns"],
                category="alarm",
                args={
                    key: alarm[key]
                    for key in ("interval_index", "consecutive", "log_density")
                },
            )
    return {
        "flags": flags,
        "skipped_intervals": [i for i, s in zip(indices, skipped) if s],
        "alarms": alarms,
        "analysis_time_us": analysis_us,
    }


def _cmd_monitor(args) -> int:
    detector = MhmDetector.load(args.detector)
    try:
        theta = detector.threshold(args.quantile)
    except KeyError as exc:  # no θ calibrated at --quantile
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return ExitCode.USAGE
    config = PlatformConfig(seed=args.seed)
    with obs.span("monitor.run"):
        series = Platform(config).collect_intervals(args.intervals)
    log_densities = (
        kernels.FleetScorer.from_detectors(detector)
        .score(series.matrix())
        .log_densities
    )
    verdicts = _window_verdicts(
        series, log_densities, detector, theta, args, config.interval_ns
    )
    alarms = verdicts["alarms"]
    flagged = int(verdicts["flags"].sum())
    skipped = len(verdicts["skipped_intervals"])
    scored = len(series) - skipped
    flag_rate = flagged / scored if scored else 0.0
    densities = log_densities / LN10

    if args.json:
        interval_us = config.interval_ns / 1_000.0
        payload = {
            "command": "monitor",
            "seed": args.seed,
            "quantile_percent": args.quantile,
            "intervals": len(series),
            "flagged": flagged,
            "flag_rate": flag_rate,
            "skipped": skipped,
            "skipped_intervals": verdicts["skipped_intervals"],
            "kernels_backend": kernels.active_backend(),
            "alarms": alarms,
            "analysis_time_us": verdicts["analysis_time_us"],
            "interval_us": interval_us,
            "analysis_budget_fraction": verdicts["analysis_time_us"] / interval_us,
            "log10_densities": densities,
            "log10_threshold": detector.log10_threshold(args.quantile),
        }
        print(json.dumps(obs.to_jsonable(payload), indent=2))
    else:
        print(
            render_series(
                densities,
                thresholds={"theta": detector.log10_threshold(args.quantile)},
                height=12,
                width=90,
            )
        )
        print(
            f"{flagged} of {len(series)} intervals flagged "
            f"({flag_rate:.1%}) at theta_{args.quantile:g}; "
            f"{len(alarms)} alarm(s)"
        )
    _obs_finish(
        args,
        "monitor",
        config=config,
        seed=args.seed,
        intervals=args.intervals,
        detector=str(args.detector),
        alarms=len(alarms),
    )
    return EXIT_ALARM if alarms else EXIT_OK


def _cmd_attack(args) -> int:
    detector = MhmDetector.load(args.detector)
    try:
        theta = detector.threshold(args.quantile)
    except KeyError as exc:  # no θ calibrated at --quantile
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return ExitCode.USAGE
    config = PlatformConfig(seed=args.seed)
    result, _ = run_scenario_cached(
        config,
        args.scenario,
        None,
        pre_intervals=args.pre,
        attack_intervals=args.during,
        scenario_seed=args.seed,
        cache=None,
    )
    log_densities = score_scenario(result, detector).log_densities
    verdicts = _window_verdicts(
        result.series, log_densities, detector, theta, args, config.interval_ns
    )
    alarms = verdicts["alarms"]
    flags = verdicts["flags"]
    densities = log_densities / LN10
    inject = result.attack_interval
    pre_fpr = float(flags[:inject].mean()) if inject else 0.0
    post_rate = float(flags[inject:].mean())
    first_alarm = alarms[0]["interval_index"] if alarms else None

    if args.json:
        payload = {
            "command": "attack",
            "scenario": args.scenario,
            "seed": args.seed,
            "quantile_percent": args.quantile,
            "attack_interval": inject,
            "pre_attack_fpr": pre_fpr,
            "post_attack_flag_rate": post_rate,
            "alarms": alarms,
            "first_alarm_interval": first_alarm,
            "detection_latency_intervals": (
                first_alarm - inject if first_alarm is not None else None
            ),
            "log10_densities": densities,
            "flags": flags,
            "log10_threshold": detector.log10_threshold(args.quantile),
        }
        print(json.dumps(obs.to_jsonable(payload), indent=2))
    else:
        print(
            render_series(
                densities,
                thresholds={"theta": detector.log10_threshold(args.quantile)},
                events={"attack": inject},
                height=12,
                width=90,
            )
        )
        print(
            format_table(
                ["quantity", "value"],
                [
                    ["scenario", args.scenario],
                    ["attack interval", inject],
                    ["pre-attack FPR", f"{pre_fpr:.1%}"],
                    ["post-attack flag rate", f"{post_rate:.1%}"],
                    ["alarms", len(alarms)],
                    [
                        "first alarm interval",
                        first_alarm if first_alarm is not None else "-",
                    ],
                ],
            )
        )
    _obs_finish(
        args,
        "attack",
        config=config,
        seed=args.seed,
        intervals=args.pre + args.during,
        scenario=args.scenario,
        detector=str(args.detector),
        alarms=len(alarms),
    )
    return EXIT_ALARM if alarms else EXIT_OK


def _cmd_experiments(args) -> int:
    scale = _SCALES[args.scale]
    scenarios = args.scenario or sorted(_SCENARIOS)
    config_axes = None
    if args.granularity:
        config_axes = {
            "granularity": [int(v) for v in args.granularity.split(",") if v]
        }
    train_overrides = {}
    if args.train_runs is not None:
        train_overrides["runs"] = args.train_runs
    if args.train_intervals is not None:
        train_overrides["intervals_per_run"] = args.train_intervals
    if args.validation is not None:
        train_overrides["validation_intervals"] = args.validation

    try:
        fault_plan = _load_fault_plan(args.fault_plan)
    except _FaultPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE

    jobs = build_grid_jobs(
        scenarios,
        scale,
        root_seed=args.seed,
        replicas=args.replicas,
        config_axes=config_axes,
        train_overrides=train_overrides or None,
    )
    runner = ExperimentRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        fail_fast=args.fail_fast,
        fault_plan=fault_plan,
    )
    try:
        results = runner.run(jobs)
    except JobFailedError as exc:
        if args.failures_out:
            runner.write_failure_manifest(args.failures_out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_JOB_FAILURES
    failures = runner.job_failures
    if args.failures_out and failures:
        runner.write_failure_manifest(args.failures_out)
    hits = sum(sum(r.cache_hits.values()) for r in results)
    misses = sum(sum(r.cache_misses.values()) for r in results)

    if args.json:
        payload = {
            "command": "experiments",
            "scale": args.scale,
            "root_seed": args.seed,
            "jobs": args.jobs,
            "cache": not args.no_cache,
            "cache_hits": hits,
            "cache_misses": misses,
            "retries": runner.retries,
            "failures": runner.failure_manifest()["failures"],
            "results": [
                {
                    **r.summary,
                    "cache_hits": r.cache_hits,
                    "cache_misses": r.cache_misses,
                    "stage_seconds": r.stage_seconds,
                    "fingerprint": r.fingerprint(),
                }
                for r in results
            ],
        }
        print(json.dumps(obs.to_jsonable(payload), indent=2))
    else:
        rows = [
            [
                r.job.name,
                r.num_eigenmemories,
                f"{r.summary['auc']:.3f}",
                f"{r.summary['pre_fpr_theta_1']:.1%}",
                f"{r.summary['detection_rate_theta_1']:.1%}",
                r.summary["latency_theta_1"],
                ",".join(r.computed_stages) or "(all cached)",
                f"{sum(r.stage_seconds.values()):.2f}s",
            ]
            for r in results
        ]
        print(
            format_table(
                [
                    "job",
                    "L'",
                    "AUC",
                    "pre-FPR@th1",
                    "det-rate@th1",
                    "latency",
                    "computed stages",
                    "time",
                ],
                rows,
                title=f"experiment grid ({len(results)} of {len(jobs)} jobs, "
                f"--jobs {args.jobs}, scale {args.scale})",
            )
        )
        print(
            f"cache: {hits} hit(s), {misses} miss(es); "
            f"retries: {runner.retries}"
        )
        for failure in failures:
            print(
                f"FAILED {failure.job_name}: {failure.error_type}: "
                f"{failure.message} (after {failure.attempts} attempt(s))",
                file=sys.stderr,
            )
    _obs_finish(
        args,
        "experiments",
        seed=args.seed,
        intervals=sum(r.summary["intervals"] for r in results),
        scale=args.scale,
        grid_jobs=len(results),
        workers=args.jobs,
        cache_hits=hits,
        cache_misses=misses,
        retries=runner.retries,
        job_failures=len(failures),
    )
    return EXIT_JOB_FAILURES if failures else EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import check_regressions, run_benchmarks, write_report

    results, extras = run_benchmarks(
        smoke=args.smoke, repeats=args.repeats, seed=args.seed
    )
    payload = write_report(
        args.out, results, smoke=args.smoke, repeats=args.repeats, extras=extras
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            [
                r.kernel,
                r.n,
                f"{r.wall_s * 1e3:.3f} ms",
                f"{r.reference_wall_s * 1e3:.3f} ms",
                f"{r.speedup_vs_reference:.1f}x",
            ]
            for r in results
        ]
        print(
            format_table(
                ["kernel", "n", "vectorized", "reference", "speedup"],
                rows,
                title=f"kernel bench ({payload['mode']}, "
                f"git {payload['git_sha']}) -> {args.out}",
            )
        )
        fleet = payload.get("fleet_throughput")
        if fleet:
            f64 = fleet["float64"]
            print(
                f"fleet throughput (pad_to={fleet['pad_to']}, "
                f"batch={fleet['batch_rows']} rows): "
                f"float64 {f64['devices_per_sec']:,.0f} devices/s "
                f"({f64['devices_per_10ms_interval']:,.0f} @ 10 ms)"
            )
    failures = check_regressions(results)
    if failures:
        for failure in failures:
            print(f"BENCH REGRESSION {failure}", file=sys.stderr)
        if args.check:
            return EXIT_BENCH_REGRESSION
    return EXIT_OK


def _cmd_cache(args) -> int:
    cache = ArtifactCache(args.cache_dir)
    if args.cache_action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.dir}")
        return EXIT_OK
    stats = cache.stats()
    rows = [
        [stage, info["entries"], f"{info['bytes'] / 1024:.1f} KiB"]
        for stage, info in stats["stages"].items()
    ]
    rows.append(["total", stats["entries"], f"{stats['bytes'] / 1024:.1f} KiB"])
    print(
        format_table(
            ["stage", "entries", "size"],
            rows,
            title=f"artifact cache at {stats['root']} ({stats['namespace']})",
        )
    )
    return EXIT_OK


def _cmd_heatmap(args) -> int:
    platform = Platform(PlatformConfig(seed=args.seed))
    series = platform.collect_intervals(args.interval_index + 1)
    heat_map = series[args.interval_index]
    if args.json:
        spec = heat_map.spec
        payload = {
            "command": "heatmap",
            "seed": args.seed,
            "interval_index": heat_map.interval_index,
            "start_time_ns": heat_map.start_time_ns,
            "spec": {
                "base_address": spec.base_address,
                "region_size": spec.region_size,
                "granularity": spec.granularity,
                "num_cells": spec.num_cells,
            },
            "counts": heat_map.counts,
        }
        print(json.dumps(obs.to_jsonable(payload), indent=2))
    else:
        print(render_heatmap(heat_map, width=args.width, log_scale=True))
    return EXIT_OK


def _cmd_stats(args) -> int:
    with open(args.metrics_json) as fh:
        data = json.load(fh)
    if "metrics" in data and isinstance(data["metrics"], dict):
        host = data.get("host", {})
        rows = [
            ["command", data.get("command", "?")],
            ["argv", " ".join(data.get("argv", []))],
            ["seed", data.get("seed", "-")],
            ["intervals", data.get("intervals", "-")],
            ["version", data.get("version", "?")],
            ["python", host.get("python", "?")],
            ["platform", host.get("platform", "?")],
            ["trace events", data.get("extra", {}).get("trace_events", "-")],
        ]
        print(format_table(["field", "value"], rows, title="run manifest"))
        print()
        snapshot = data["metrics"]
    else:
        snapshot = data
    service_rows = _service_counter_rows(snapshot)
    if service_rows:
        print(
            format_table(
                ["counter", "value"],
                service_rows,
                title="service counters (serve.*/runner.*)",
            )
        )
        print()
    print(format_metrics(snapshot))
    return EXIT_OK


def _cmd_top(args) -> int:
    from .viz.top import run_top

    run_top(
        args.metrics_dir,
        once=args.once,
        interval=args.interval,
        width=args.width,
    )
    return EXIT_OK


def _cmd_matrix(args) -> int:
    sizing = _SIZINGS[args.sizing]
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    matrix = build_matrix(
        sizing=sizing,
        scenarios=args.scenario or None,
        cache=cache,
    )
    document = matrix.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(document + "\n")
    if args.json:
        print(document)
    else:
        rows = [
            [
                cell.scenario,
                cell.detector,
                cell.expected,
                cell.observed,
                "ok" if cell.matched else "DIVERGED",
            ]
            for cell in matrix.cells
        ]
        print(
            format_table(
                ["scenario", "detector", "expected", "observed", "status"],
                rows,
                title=f"conformance matrix ({matrix.sizing}, "
                f"digest {matrix.digest()[:16]})",
            )
        )
    mismatches = matrix.mismatches()
    for cell in mismatches:
        print(
            f"MATRIX DIVERGENCE {cell.scenario} x {cell.detector}: "
            f"expected {cell.expected!r}, observed {cell.observed!r}",
            file=sys.stderr,
        )
    return EXIT_MATRIX_DIVERGENCE if mismatches else EXIT_OK


def _serve_intervals(args) -> int:
    """Resolve --intervals / --duration into monitoring intervals."""
    if args.intervals is not None:
        return args.intervals
    if args.duration is not None:
        interval_ns = PlatformConfig().interval_ns
        return max(1, round(args.duration * 1e9 / interval_ns))
    return 100


def _render_fleet_report(report: FleetReport) -> str:
    totals = [
        ("devices", report.devices),
        ("shards", report.shards),
        ("intervals/device", report.intervals),
        ("seed", report.seed),
        ("policy", report.policy),
        ("kernels backend", report.kernels_backend),
        ("emitted", report.emitted),
        ("scored", report.scored),
        ("skipped", report.skipped),
        ("dropped", report.dropped),
        ("flagged", report.flagged),
        ("alarms", report.alarms),
        ("block stalls", report.block_stalls),
        ("devices alarmed", report.devices_alarmed),
        ("devices attacked", report.devices_attacked),
        ("attacked devices alarmed", report.attacked_devices_alarmed),
        ("devices drifted", report.devices_drifted),
        ("fleet digest", report.fleet_digest[:16]),
    ]
    rows = []
    for dev in report.device_reports:
        rows.append(
            [
                dev.device_id,
                dev.profile,
                dev.shard,
                dev.scenario or "-",
                dev.scored,
                dev.skipped,
                dev.dropped,
                dev.flagged,
                dev.alarms,
                "-" if dev.detection_latency is None else dev.detection_latency,
                "yes" if dev.drifted else "no",
                dev.digest[:12],
            ]
        )
    return (
        format_table(["metric", "value"], totals, title="fleet totals")
        + "\n\n"
        + format_table(
            [
                "device", "profile", "shard", "scenario", "scored",
                "skipped", "dropped", "flagged", "alarms", "latency",
                "drift", "digest",
            ],
            rows,
            title="devices",
        )
    )


def _service_counter_rows(snapshot: dict) -> list:
    """``serve.*`` / ``runner.*`` counters from a metrics snapshot."""
    rows = []
    for name in sorted(snapshot):
        data = snapshot[name]
        if data.get("type") != "counter":
            continue
        family = data.get("family", name)
        if family.startswith(("serve.", "runner.")):
            rows.append([name, data.get("value", 0)])
    return rows


def _render_telemetry_footer(snapshot: dict) -> str:
    """The fleet report's service-counter footer (empty when no obs)."""
    rows = _service_counter_rows(snapshot)
    if not rows:
        return ""
    return format_table(
        ["counter", "value"], rows, title="service telemetry (serve.*/runner.*)"
    )


def _cmd_serve(args) -> int:
    try:
        fault_plan = _load_fault_plan(args.fault_plan)
    except _FaultPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    profiles = tuple(p for p in args.profiles.split(",") if p)
    cadences = None
    if args.cadences:
        try:
            cadences = tuple(int(c) for c in args.cadences.split(",") if c)
        except ValueError:
            print(
                f"error: --cadences must be a comma-separated list of "
                f"integers, got {args.cadences!r}",
                file=sys.stderr,
            )
            return ExitCode.USAGE
    try:
        config = ServeConfig(
            devices=args.devices,
            shards=args.shards,
            intervals=_serve_intervals(args),
            policy=args.policy,
            queue_capacity=args.capacity,
            batch_size=args.batch,
            p_percent=args.quantile,
            consecutive_for_alarm=args.alarm_consecutive,
            seed=args.seed,
            profiles=profiles,
            attacked_devices=args.attacks,
            attack_scenarios=tuple(args.scenario or sorted(_SCENARIOS)),
            train=FleetTrainSpec(
                runs=args.train_runs,
                intervals_per_run=args.train_intervals,
                validation_intervals=args.validation,
            ),
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            modality=args.modality,
            ensemble=EnsembleConfig(
                mhm_share=args.mhm_share, rule=args.ensemble_rule
            ),
            cadences=cadences,
            recalibration=RecalibrationPolicy(
                enabled=args.recalibrate,
                canary_intervals=args.canary_intervals,
            ),
            stall_timeout=args.stall_timeout or None,
        )
        telemetry = TelemetryConfig.from_current(
            metrics_dir=args.metrics_dir,
            metrics_interval=args.metrics_interval,
        )
        service = FleetService(
            config, fault_plan=fault_plan, telemetry=telemetry
        )
        report = service.run()
    except BusStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.BUS_STALL
    except (ValueError, KeyError) as exc:
        # KeyError: a budget split landing outside the calibrated
        # threshold banks (the detectors calibrate θ at fixed quantiles).
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    if args.failures_out:
        failures = (report.bus or {}).get("failures", [])
        with open(args.failures_out, "w") as handle:
            json.dump(failures, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if failures:
            print(
                f"warning: {len(failures)} poisoned subscriber(s) "
                f"-> {args.failures_out}",
                file=sys.stderr,
            )
    if args.report_out:
        report.write(args.report_out)
    if args.health_out:
        summary = write_health(args.health_out, report)
        if not summary["ready"]:
            failing = ", ".join(
                c["name"] for c in summary["checks"] if not c["ok"]
            )
            print(
                f"warning: health NOT ready (failing: {failing}) "
                f"-> {args.health_out}",
                file=sys.stderr,
            )
    if args.json:
        print(report.to_json())
    else:
        print(_render_fleet_report(report))
        footer = _render_telemetry_footer(obs.metrics().snapshot())
        if footer:
            print()
            print(footer)
    _obs_finish(
        args, "serve", seed=args.seed, intervals=config.intervals,
        devices=config.devices, shards=config.shards,
    )
    if report.dropped > 0:
        print(
            f"warning: {report.dropped} interval(s) dropped under "
            f"backpressure (policy={config.policy})",
            file=sys.stderr,
        )
        return ExitCode.SERVE_DEGRADED
    return ExitCode.OK


def _cmd_detect(args) -> int:
    """Replay one scenario and judge it under the chosen modality.

    Mirrors the conformance matrix's verdict rules: a modality
    "detects" when its post-injection per-interval flag rate clears the
    alert floor (5x the budget, min 10%), or — context/ensemble — when
    the phase-drift statistic exceeds its calibrated clean bound.
    Exits :data:`ExitCode.ALARM` on detection, OK on a miss.
    """
    scale = _SCALES[args.scale]
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    try:
        ensemble = EnsembleConfig(
            mhm_share=args.mhm_share, rule=args.ensemble_rule
        )
        p = args.quantile
        modality = args.modality
        mhm_p, context_p = ensemble.budgets(modality, p)
        artifacts = get_reference_artifacts(
            scale, seed=args.seed, cache=cache
        )
        outcome = run_scenario_experiment(
            args.scenario,
            artifacts,
            scenario_seed=args.scenario_seed,
            cache=cache,
        )
        # Only the channels the modality reads: the report's context
        # fields stay null under mhm.
        mhm_flags = outcome.flags(mhm_p) if modality != "contexts" else None
        context_flags = (
            outcome.context_flags(context_p) if modality != "mhm" else None
        )
        fused = ensemble.verdict(modality, mhm_flags, context_flags)
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE

    mask = outcome.ground_truth
    rate = float(fused[mask].mean()) if mask.any() else 0.0
    floor = interval_alert_floor(p)
    drift_hit = (
        outcome.context_drift_exceeded if context_flags is not None else False
    )
    detected = interval_detect(rate, p, drift_hit)
    report = {
        "scenario": args.scenario,
        "modality": modality,
        "p_percent": p,
        "detection_rate": rate,
        "alert_floor": floor,
        "context_drift_max": (
            outcome.context_drift_max if context_flags is not None else None
        ),
        "context_drift_bound": (
            outcome.context_drift_bound if context_flags is not None else None
        ),
        "drift_exceeded": drift_hit,
        "detected": detected,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [[key, report[key]] for key in report]
        print(
            format_table(
                ["field", "value"],
                rows,
                title=f"detect: {args.scenario} x {modality}",
            )
        )
    _obs_finish(args, "detect", seed=args.seed, scenario=args.scenario)
    return ExitCode.ALARM if detected else ExitCode.OK


def _cmd_fleet_report(args) -> int:
    with open(args.report_json) as fh:
        payload = json.load(fh)
    try:
        report = FleetReport.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        print(
            f"error: invalid fleet report {args.report_json}: {exc}",
            file=sys.stderr,
        )
        return ExitCode.USAGE
    if args.json:
        print(report.to_json())
    else:
        print(_render_fleet_report(report))
    return ExitCode.OK


_HANDLERS = {
    "train": _cmd_train,
    "monitor": _cmd_monitor,
    "attack": _cmd_attack,
    "detect": _cmd_detect,
    "experiments": _cmd_experiments,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "heatmap": _cmd_heatmap,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "fleet-report": _cmd_fleet_report,
    "top": _cmd_top,
    "matrix": _cmd_matrix,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    enabled_here = _obs_requested(args)
    try:
        _check_output_paths(args)
        if enabled_here:
            # serve restricts the tracer to fleet-layer categories so a
            # long soak's trace stays bounded; single-device commands
            # keep the full simulator event stream.
            categories = (
                SERVE_TRACE_CATEGORIES if args.command == "serve" else None
            )
            obs.enable(trace_categories=categories)
            if getattr(args, "log", None):
                obs.logger().add_sink(obs.FileSink(args.log))
        return _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.IO_ERROR
    finally:
        if enabled_here:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Kernel benchmark harness — the repo's machine-readable perf trajectory.

``repro bench`` times every hot-path kernel through the
:mod:`repro.kernels` facade under each backend, at one BLAS thread,
plus a small end-to-end train/detect pipeline, and writes
``BENCH_kernels.json``: one entry per kernel with
``kernel, n, wall_s, speedup_vs_reference, git_sha``.  Subsequent PRs
regress against this file — CI's ``bench-smoke`` job runs
``repro bench --smoke --check`` and fails when the vectorized backend
falls below its per-kernel speedup floor (never slower than the
reference oracle; see ``SPEEDUP_FLOORS`` — ≥3x on Memometer counting,
≥5x on GMM batch scoring, ≥50x on the BLAS-bound batch kernels, ≥25x
on the fused fleet path, ≥30x end-to-end).  The report additionally
carries a ``fleet_throughput`` block: devices/sec through the fused
float64 path (and per 10 ms paper interval).

Problem sizes follow the paper/EXPERIMENTS.md scales: the monitored
region is the prototype's 1,472-cell kernel ``.text`` map, a full
counting run covers ~1M snooped addresses (≈100 monitoring intervals
of instruction-fetch trace; EXPERIMENTS.md scenarios span 400–500
intervals), and GMM scoring covers the Section 5.2 training-set size
(3,000 MHMs reduced to L′ = 9, J = 5 components).  ``--smoke`` shrinks
every size for CI while keeping the same shape.

Speedups are measured on one machine within one process, so they are
robust to absolute machine speed; ``wall_s`` entries are only
comparable across runs on similar hardware.
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core.spec import HeatMapSpec
from .kernels.blas_threads import one_blas_thread
from .learn.detector import MhmDetector
from .pipeline.training import collect_training_data
from .sim.platform import PlatformConfig
from .sim.trace import synthetic_burst

__all__ = [
    "BenchResult",
    "SPEEDUP_FLOORS",
    "PAPER_SPEC",
    "git_sha",
    "run_benchmarks",
    "write_report",
    "check_regressions",
]

#: The paper's prototype region: Linux kernel .text, 1,472 cells at 2 KB.
PAPER_SPEC = HeatMapSpec(
    base_address=0xC0008000, region_size=3_013_284, granularity=2048
)

#: Minimum acceptable vectorized-over-reference speedup per kernel.
#: ``--check`` fails the run when any kernel lands below its floor.
#: Floors come from the PR acceptance criteria, set conservatively
#: below the smoke-mode measurements (CI gates in smoke mode): the
#: BLAS-bound batch kernels measure 150-1500x full / >100x smoke, so
#: 50x trips on any real regression without flaking on machine noise;
#: the fused fleet path and the end-to-end pipeline were ratcheted
#: when the fused kernel landed.
SPEEDUP_FLOORS = {
    "count_cells": 3.0,
    "project_batch": 50.0,
    "reconstruct_batch": 50.0,
    "log_density_batch": 5.0,
    "responsibilities_batch": 50.0,
    "fleet_score_batch": 25.0,
    "train_detect_e2e": 30.0,
}
DEFAULT_SPEEDUP_FLOOR = 1.0

#: Interleaved (reference shot, vectorized window) rounds per timing.
TIMING_ROUNDS = 3


@dataclass(frozen=True)
class BenchResult:
    """One row of ``BENCH_kernels.json``."""

    kernel: str
    n: int
    wall_s: float
    reference_wall_s: float
    speedup_vs_reference: float
    git_sha: str


def git_sha() -> str:
    """The current commit (short), or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _time_vectorized(
    fn: Callable[[], object], repeats: int, window_s: float
) -> float:
    """Best per-call wall time over at least ``repeats`` calls whose
    summed wall time reaches ``window_s``."""
    best = float("inf")
    calls = 0
    spent = 0.0
    while calls < max(repeats, 1) or spent < window_s:
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best = min(best, took)
        spent += took
        calls += 1
    return best


def _time_reference(fn: Callable[[], object]) -> float:
    """Single-shot wall time — the scalar oracle needs no warmup and is
    too slow to repeat within a round."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _time_backends(fn: Callable[[], object], repeats: int) -> tuple[float, float]:
    """``(vectorized_s, reference_s)``: ``fn`` timed under each backend.

    After one vectorized warmup call (BLAS spin-up), ``TIMING_ROUNDS``
    rounds each take one reference shot and then time the vectorized
    side over a window as long as that shot; each side reports its
    median round.  So both sides see the same spans of host load, and
    a burst that covers one window alone cannot move either figure: a
    best-of-3 inside a ~1 ms window read 30% slow whenever a burst
    covered just it.

    Both timings run at one BLAS thread: the benched batches are small,
    and on a 2-vCPU host a second OpenBLAS thread now and then stalled
    a ~0.3 ms call for ~40 ms, far below its speedup floor.
    """
    vectorized, reference = [], []
    with one_blas_thread():
        with kernels.use_backend("vectorized"):
            fn()
        for _ in range(TIMING_ROUNDS):
            with kernels.use_backend("reference"):
                reference.append(_time_reference(fn))
            with kernels.use_backend("vectorized"):
                vectorized.append(
                    _time_vectorized(fn, repeats, window_s=reference[-1])
                )
    return statistics.median(vectorized), statistics.median(reference)


def _result(
    kernel: str,
    n: int,
    vectorized_s: float,
    reference_s: float,
    sha: str,
) -> BenchResult:
    return BenchResult(
        kernel=kernel,
        n=n,
        wall_s=vectorized_s,
        reference_wall_s=reference_s,
        speedup_vs_reference=(
            reference_s / vectorized_s if vectorized_s > 0 else float("inf")
        ),
        git_sha=sha,
    )


# ----------------------------------------------------------------------
# Individual kernel benches
# ----------------------------------------------------------------------
def _pca_fixture(n: int, rng):
    num_cells = PAPER_SPEC.num_cells
    rank = 9  # the paper keeps 9 eigenmemories
    mean = rng.random(num_cells) * 1e4
    basis, _ = np.linalg.qr(rng.standard_normal((num_cells, rank)))
    components = basis.T
    matrix = mean + rng.standard_normal((n, num_cells)) * 100.0
    weights = rng.standard_normal((n, rank)) * 50.0
    return matrix, mean, components, weights


def _gmm_fixture(n: int, rng):
    dim, num_components = 9, 5  # the paper's L' = 9, J = 5
    means = rng.standard_normal((num_components, dim)) * 4.0
    factors = rng.standard_normal((num_components, dim, dim)) * 0.3
    covariances = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(dim)
    cholesky_factors = np.linalg.cholesky(covariances)
    weights = rng.dirichlet(np.ones(num_components))
    data = rng.standard_normal((n, dim)) * 4.0
    return data, weights, means, cholesky_factors


def _kernel_calls(sizes: dict, rng):
    """``(kernel, n, call)`` per single-kernel row, in report order:
    ``call`` runs the facade's ``kernel`` on that row's fixture."""
    n = sizes["count_cells"]
    burst = synthetic_burst(
        rng,
        n,
        base_address=PAPER_SPEC.base_address,
        region_size=PAPER_SPEC.region_size,
        in_region_fraction=0.95,
    )
    yield "count_cells", n, functools.partial(
        kernels.count_cells,
        burst.addresses,
        burst.weights,
        base_address=PAPER_SPEC.base_address,
        region_size=PAPER_SPEC.region_size,
        shift=PAPER_SPEC.shift,
        num_cells=PAPER_SPEC.num_cells,
    )
    n = sizes["project_batch"]
    matrix, mean, components, _ = _pca_fixture(n, rng)
    yield "project_batch", n, functools.partial(
        kernels.project_batch, matrix, mean, components
    )
    n = sizes["reconstruct_batch"]
    _, mean, components, weights = _pca_fixture(n, rng)
    yield "reconstruct_batch", n, functools.partial(
        kernels.reconstruct_batch, weights, mean, components
    )
    for name in ("log_density_batch", "responsibilities_batch"):
        n = sizes[name]
        yield name, n, functools.partial(
            getattr(kernels, name), *_gmm_fixture(n, rng)
        )


def _context_fixture(rng, syscall_dim: int = 12, num_contexts: int = 8,
                     hyperperiod: int = 10):
    """Second-modality model arrays at the serve layer's shapes."""
    centers = rng.random((num_contexts, syscall_dim)) * 40.0
    scales = rng.random(num_contexts) * 3.0 + 0.5
    phase_means = rng.random((hyperperiod, syscall_dim)) * 40.0
    return centers, scales, phase_means


def _fleet_fixture(n: int, rng):
    """One padded shard batch: MHM vectors + both models' arrays."""
    matrix, mean, components, _ = _pca_fixture(n, rng)
    _, weights, means, chols = _gmm_fixture(n, rng)
    centers, scales, phase_means = _context_fixture(rng)
    syscalls = rng.integers(0, 60, size=(n, centers.shape[1])).astype(
        np.float64
    )
    phases = np.arange(n, dtype=np.int64) % len(phase_means)
    return dict(
        matrix=matrix,
        mean=mean,
        components=components,
        weights=weights,
        means=means,
        cholesky_factors=chols,
        syscalls=syscalls,
        centers=centers,
        scales=scales,
        phase_means=phase_means,
        phases=phases,
    )


def _bench_fleet_score(
    n: int, repeats: int, sha: str, rng
) -> tuple[BenchResult, dict]:
    """The fused cross-device hot path, plus the fleet-throughput
    extras for the report payload.

    Throughput is quoted as devices/sec and as devices sustainable at
    the paper's 10 ms monitoring interval (each device contributes one
    row per interval, so devices-at-10ms = rows/sec x 0.01).
    """
    fx = _fleet_fixture(n, rng)

    def fused_call():
        return kernels.fleet_score_batch(pad_to=32, **fx)

    vec_s, ref_s = _time_backends(fused_call, repeats)
    rate = n / vec_s if vec_s > 0 else float("inf")
    extras = {
        "batch_rows": n,
        "pad_to": 32,
        "float64": {
            "wall_s": vec_s,
            "devices_per_sec": rate,
            "devices_per_10ms_interval": rate * 0.01,
        },
    }
    return _result("fleet_score_batch", n, vec_s, ref_s, sha), extras


def _bench_end_to_end(smoke: bool, sha: str, seed: int) -> BenchResult:
    """Train + detect on fixed seeds under each backend.

    The MHM traces are collected once (simulation counting is already
    covered by the ``count_cells`` entry); the timed section is the
    learning pipeline — PCA fit/projection, multi-restart EM, threshold
    calibration — plus scoring a small fleet of devices through the
    fused fleet path: each device contributes one scenario-length
    fresh normal window (EXPERIMENTS.md scenarios span 400-500
    intervals), stacked and scored in pad_to=32 chunks, the serving
    layer's batch shape.  That exercises every floating-point kernel
    end-to-end at the online phase's real proportions — training is a
    one-off per profile, scoring repeats per device per interval.
    """
    intervals = 60 if smoke else 120
    num_devices = 2 if smoke else 4
    window = 240 if smoke else 450
    data = collect_training_data(
        PlatformConfig(),
        runs=1,
        intervals_per_run=intervals,
        validation_intervals=intervals // 2,
        base_seed=100 + seed,
    )
    # Ingest (heat-map series → float64 matrix) happens outside the
    # timed section: it is trace plumbing, not a floating-point kernel,
    # and both backends would pay it identically.
    fleet_matrix = np.vstack(
        [
            collect_training_data(
                PlatformConfig(),
                runs=1,
                intervals_per_run=window,
                validation_intervals=1,
                base_seed=900 + seed + device,
            ).training.matrix()
            for device in range(num_devices)
        ]
    )

    def train_and_detect() -> np.ndarray:
        detector = MhmDetector(
            num_gaussians=3 if smoke else 5,
            em_restarts=1 if smoke else 2,
            seed=seed,
        ).fit(data.training, data.validation)
        scorer = kernels.FleetScorer.from_detectors(detector)
        scores = scorer.score(fleet_matrix, pad_to=32)
        return detector.thresholds.flag_series(
            scores.log_densities, p_percent=1.0
        )

    vec_s, ref_s = _time_backends(train_and_detect, repeats=1)
    total_rows = data.num_training + len(fleet_matrix)
    return _result("train_detect_e2e", total_rows, vec_s, ref_s, sha)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_benchmarks(
    smoke: bool = False, repeats: int = 3, seed: int = 2015
) -> tuple[list[BenchResult], dict]:
    """Time every kernel (both backends) and the end-to-end pipeline.

    Returns ``(results, extras)``: the per-kernel rows plus the
    fleet-throughput payload measured alongside the
    ``fleet_score_batch`` row.
    """
    rng = np.random.default_rng(seed)
    sha = git_sha()
    sizes = {
        "count_cells": 50_000 if smoke else 1_000_000,
        "project_batch": 32 if smoke else 256,
        "reconstruct_batch": 32 if smoke else 256,
        "log_density_batch": 400 if smoke else 3_000,
        "responsibilities_batch": 400 if smoke else 1_000,
        "fleet_score_batch": 64 if smoke else 512,
    }
    fleet_result, fleet_extras = _bench_fleet_score(
        sizes["fleet_score_batch"], repeats, sha, rng
    )
    results = [
        _result(name, n, *_time_backends(call, repeats), sha)
        for name, n, call in _kernel_calls(sizes, rng)
    ]
    results += [fleet_result, _bench_end_to_end(smoke, sha, seed)]
    return results, {"fleet_throughput": fleet_extras}


def check_regressions(results: list[BenchResult]) -> list[str]:
    """Kernels below their speedup floor (empty list = gate passes)."""
    failures = []
    for result in results:
        floor = SPEEDUP_FLOORS.get(result.kernel, DEFAULT_SPEEDUP_FLOOR)
        if result.speedup_vs_reference < floor:
            failures.append(
                f"{result.kernel}: {result.speedup_vs_reference:.2f}x "
                f"< required {floor:.1f}x (n={result.n}, "
                f"vectorized {result.wall_s:.4f}s vs "
                f"reference {result.reference_wall_s:.4f}s)"
            )
    return failures


def write_report(
    path,
    results: list[BenchResult],
    smoke: bool,
    repeats: int,
    extras: dict | None = None,
) -> dict:
    """Write ``BENCH_kernels.json`` and return the payload."""
    payload = {
        "schema_version": 1,
        "git_sha": git_sha(),
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "default_backend": kernels.DEFAULT_BACKEND,
        "speedup_floors": {
            r.kernel: SPEEDUP_FLOORS.get(r.kernel, DEFAULT_SPEEDUP_FLOOR)
            for r in results
        },
        "results": [asdict(r) for r in results],
    }
    if extras:
        payload.update(extras)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload

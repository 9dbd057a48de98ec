"""Section 5.4: per-MHM analysis time on the secure core.

Paper (1,000-sample means on the Simics-modelled secure core):

    L = 1472, L' = 9, J = 5   ->  358 us
    L =  368 (delta = 8 KB)   ->  100 us
    L' = 5                    ->  216 us

We report three columns per configuration: the paper's number, our
calibrated secure-core timing model (which reproduces the paper's
table by construction and extrapolates), and the measured wall-clock
of this library's numpy scoring path.  Absolute numpy numbers differ
from an embedded core; the *ratios* between configurations are the
reproduction target.
"""

import time

import numpy as np
import pytest

from repro.hw.securecore import AnalysisTimingModel
from repro.kernels.blas_threads import one_blas_thread
from repro.learn.detector import MhmDetector
from repro.sim.platform import Platform, PlatformConfig


def _train(num_eigenmemories, training, validation):
    detector = MhmDetector(
        num_eigenmemories=num_eigenmemories, em_restarts=2, seed=0
    )
    detector.fit(training, validation)
    return detector


def _mean_score_time_us(detector, series, samples=1000):
    """Per-MHM wall time of online (one-at-a-time) scoring."""
    maps = [series[i % len(series)] for i in range(samples)]
    start = time.perf_counter()
    for heat_map in maps:
        detector.log_density(heat_map)
    return (time.perf_counter() - start) / samples * 1e6


def _batch_score_times_us(cases, samples=1000, repeats=5):
    """Per-MHM wall time of batched scoring, where the O(L*L') term
    dominates instead of the Python call overhead, for every
    ``(detector, series)`` case.  The timed repeats alternate between
    the cases round by round, so a slow phase of a shared host slows
    every case alike; each case keeps its best of ``repeats``.  They
    run at one BLAS thread, as the fused scorer does and as the secure
    core is one core: beside other BLAS work a two-thread call waits on
    a descheduled peer, a cost that does not scale with L."""
    batches = []
    for detector, series in cases:
        matrix = series.matrix()
        tiles = -(-samples // len(matrix))
        batches.append((detector, np.tile(matrix, (tiles, 1))[:samples]))
    best = [np.inf] * len(batches)
    with one_blas_thread():
        for _ in range(repeats):
            for index, (detector, batch) in enumerate(batches):
                start = time.perf_counter()
                detector.score_series(batch)
                best[index] = min(best[index], time.perf_counter() - start)
    return [seconds / samples * 1e6 for seconds in best]


def test_sec54_analysis_time(benchmark, report, paper_artifacts):
    model = AnalysisTimingModel()
    configs = [
        ("L=1472, L'=9, J=5", 2048, 9, 358),
        ("L=368,  L'=9, J=5", 8192, 9, 100),
        ("L=1472, L'=5, J=5", 2048, 5, 216),
    ]

    # The 2 KB detectors can reuse the session artifacts' data; the 8 KB
    # configuration needs its own (coarser) training data.
    fine_training = paper_artifacts.data.training
    fine_validation = paper_artifacts.data.validation
    coarse_config = PlatformConfig(granularity=8192, seed=300)
    coarse_training = Platform(coarse_config).collect_intervals(400)
    coarse_validation = Platform(coarse_config.with_seed(301)).collect_intervals(200)

    trained = []
    for _, granularity, num_eigen, _ in configs:
        if granularity == 2048:
            training, series = fine_training, fine_validation
        else:
            training, series = coarse_training, coarse_validation
        trained.append((_train(num_eigen, training, series), series))
    batches = _batch_score_times_us(trained, samples=1000)

    rows = []
    measured = {}
    for (label, granularity, num_eigen, paper_us), (detector, series), batch in zip(
        configs, trained, batches
    ):
        num_cells = 1472 if granularity == 2048 else 368
        modelled = model.analysis_time_us(num_cells, num_eigen, 5)
        online = _mean_score_time_us(detector, series, samples=1000)
        measured[label] = batch
        rows.append(
            [
                label,
                f"{paper_us} us",
                f"{modelled:.0f} us",
                f"{online:.0f} us",
                f"{batch:.2f} us",
            ]
        )

    report.table(
        [
            "configuration",
            "paper",
            "secure-core model",
            "numpy online",
            "numpy batched",
        ],
        rows,
        title="Section 5.4 — per-MHM analysis time (1,000-sample means)",
    )
    report.add(
        "The secure-core model is calibrated on the paper's three points",
        "(c1=31.5ns, c2=22.5ns, c3=34.6ns per inner-loop op at 1 GHz) and",
        "reproduces them exactly.  Numpy online scoring is dominated by",
        "per-call overhead, so the size scaling only shows in the batched",
        "column, whose ordering must match the paper's: smaller L ->",
        "much faster.",
    )

    # The calibrated model reproduces the paper's table.
    assert model.analysis_time_us(1472, 9, 5) == pytest.approx(358, abs=1)
    assert model.analysis_time_us(368, 9, 5) == pytest.approx(100, abs=1)
    assert model.analysis_time_us(1472, 5, 5) == pytest.approx(216, abs=1)

    # Measured ordering matches the paper's (ratios, not absolutes).
    assert measured["L=368,  L'=9, J=5"] < measured["L=1472, L'=9, J=5"]

    # Benchmark: the paper's base configuration, one analysis step.
    base_detector = _train(9, fine_training, fine_validation)
    heat_map = fine_validation[0]
    benchmark(lambda: base_detector.log_density(heat_map))

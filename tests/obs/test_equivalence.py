"""Observability must never perturb results.

The whole obs layer only *reads* wall-clock time and simulated state:
it must not touch any RNG, reorder events, or change a single counter
in an MHM.  These tests run identical workloads with observability
fully enabled and fully disabled and require bit-identical outputs —
heat maps, detector parameters and verdicts alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.learn.detector import MhmDetector
from repro.learn.metrics import alarm_streaks
from repro.pipeline.experiments import score_scenario
from repro.pipeline.stages import run_scenario_cached
from repro.sim.platform import Platform, PlatformConfig


def _collect_matrix(seed: int, intervals: int) -> np.ndarray:
    platform = Platform(PlatformConfig(seed=seed))
    return platform.collect_intervals(intervals).matrix()


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_mhm_collection_is_bit_identical(seed):
    """Property: enabled-vs-disabled MHMs agree for any platform seed."""
    obs.disable()
    baseline = _collect_matrix(seed, 6)
    with obs.observed():
        instrumented = _collect_matrix(seed, 6)
    np.testing.assert_array_equal(baseline, instrumented)


def _train_and_score(seed: int):
    platform = Platform(PlatformConfig(seed=seed))
    training = platform.collect_intervals(40)
    validation = Platform(PlatformConfig(seed=seed + 1)).collect_intervals(30)
    detector = MhmDetector(
        num_gaussians=2, em_restarts=2, seed=seed
    ).fit(training, validation)

    result, _ = run_scenario_cached(
        PlatformConfig(),
        "rootkit",
        pre_intervals=10,
        attack_intervals=10,
        scenario_seed=seed + 2,
    )
    densities = score_scenario(result, detector).log_densities
    verdicts = densities < detector.threshold(1.0)
    streaks = alarm_streaks(verdicts, ~np.isfinite(densities))
    return {
        "training": training.matrix(),
        "pca_mean": detector.eigenmemory.mean_,
        "pca_components": detector.eigenmemory.components_,
        "gmm_weights": detector.gmm.parameters.weights,
        "gmm_means": detector.gmm.parameters.means,
        "gmm_covariances": detector.gmm.parameters.covariances,
        "threshold": np.array([detector.threshold(1.0)]),
        "series": result.series.matrix(),
        "densities": densities,
        "verdicts": verdicts,
        "alarm_intervals": np.flatnonzero(streaks == 1),
    }


def test_full_pipeline_is_bit_identical():
    """Training, detector parameters and online verdicts are unchanged
    by enabling metrics + tracing (and the instrumented run actually
    recorded something, so the comparison is not vacuous)."""
    obs.disable()
    baseline = _train_and_score(seed=77)
    with obs.observed() as (registry, tracer):
        instrumented = _train_and_score(seed=77)
        recorded_metrics = registry.counter("sim.events_executed").value
        recorded_events = len(tracer)

    assert recorded_metrics > 0, "instrumentation was not active"
    assert recorded_events > 0, "tracer was not active"
    assert baseline.keys() == instrumented.keys()
    for key in baseline:
        np.testing.assert_array_equal(
            baseline[key], instrumented[key], err_msg=f"mismatch in {key}"
        )


def test_metrics_only_and_tracing_only_are_also_identical():
    obs.disable()
    baseline = _collect_matrix(5, 4)
    with obs.observed(with_metrics=True, with_tracing=False):
        metrics_only = _collect_matrix(5, 4)
    with obs.observed(with_metrics=False, with_tracing=True):
        tracing_only = _collect_matrix(5, 4)
    np.testing.assert_array_equal(baseline, metrics_only)
    np.testing.assert_array_equal(baseline, tracing_only)


def test_observed_restores_previous_state():
    obs.disable()
    with obs.observed():
        assert obs.is_enabled()
    assert not obs.is_enabled()

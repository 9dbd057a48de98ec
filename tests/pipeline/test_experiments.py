"""Tests for the canonical experiment harness (quick scale)."""

import numpy as np
import pytest

from repro import kernels
from repro.pipeline.experiments import (
    PAPER_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    get_reference_artifacts,
    run_app_launch_experiment,
    run_rootkit_experiment,
    run_scenario_experiment,
    run_shellcode_experiment,
)
from repro.pipeline.stages import SCENARIOS


class TestScales:
    def test_paper_scale_matches_section_5_2(self):
        assert PAPER_SCALE.total_training == 3000  # 10 x 300
        assert PAPER_SCALE.em_restarts == 10
        assert PAPER_SCALE.validation_intervals == 500

    def test_quick_scale_is_smaller(self):
        assert QUICK_SCALE.total_training < PAPER_SCALE.total_training


class TestArtifacts:
    def test_cached_between_calls(self, quick_artifacts):
        again = get_reference_artifacts(QUICK_SCALE)
        assert again is quick_artifacts

    def test_detector_trained_at_scale(self, quick_artifacts):
        assert quick_artifacts.data.num_training == QUICK_SCALE.total_training
        assert quick_artifacts.detector.is_fitted

    def test_cache_bypass(self, quick_artifacts):
        fresh = get_reference_artifacts(QUICK_SCALE, use_cache=False)
        assert fresh is not quick_artifacts

    def test_memo_keyed_on_kernel_backend(self):
        """A reference-backend call trains its own models instead of
        returning the default backend's memoised ones."""
        tiny = ExperimentScale(
            name="memo-backend-tiny",
            training_runs=1,
            intervals_per_run=40,
            validation_intervals=40,
            pre_attack_intervals=10,
            attack_intervals=10,
            post_attack_intervals=10,
            em_restarts=1,
        )
        with kernels.use_backend(kernels.DEFAULT_BACKEND):
            default = get_reference_artifacts(tiny)
        with kernels.use_backend("reference"):
            reference = get_reference_artifacts(tiny)
            assert get_reference_artifacts(tiny) is reference
        assert reference is not default
        default_arrays = default.detector.to_arrays()
        reference_arrays = reference.detector.to_arrays()
        assert any(
            not np.array_equal(default_arrays[name], reference_arrays[name])
            for name in default_arrays
        )


class TestOutcomes:
    @pytest.fixture(scope="class")
    def app_launch(self, quick_artifacts):
        return run_app_launch_experiment(quick_artifacts)

    def test_summary_fields(self, app_launch):
        summary = app_launch.summary()
        for key in (
            "scenario",
            "intervals",
            "attack_interval",
            "auc",
            "pre_fpr_theta_1",
            "detection_rate_theta_1",
            "latency_theta_1",
        ):
            assert key in summary

    def test_density_arrays_aligned(self, app_launch):
        assert len(app_launch.log10_densities) == len(app_launch.scenario.series)
        assert app_launch.ground_truth.shape == app_launch.log10_densities.shape

    def test_flags_respect_threshold(self, app_launch):
        theta = app_launch.log10_thresholds[1.0]
        np.testing.assert_array_equal(
            app_launch.flags(1.0), app_launch.log10_densities < theta
        )

    def test_fpr_accounting(self, app_launch):
        start = app_launch.scenario.attack_interval
        manual = app_launch.flags(1.0)[:start].mean()
        assert app_launch.pre_attack_fpr(1.0) == pytest.approx(manual)

    def test_traffic_volumes_available(self, app_launch):
        volumes = app_launch.traffic_volumes()
        assert volumes.shape == app_launch.log10_densities.shape
        assert volumes.min() > 0

    def test_scenario_runs_on_unseen_seed(self, quick_artifacts):
        """The scenario platform seed is outside the training range."""
        outcome = run_shellcode_experiment(quick_artifacts, scenario_seed=777)
        assert outcome.scenario.name == "shellcode"

    def test_rootkit_outcome_has_load_interval(self, quick_artifacts):
        outcome = run_rootkit_experiment(quick_artifacts)
        load = outcome.scenario.attack_interval
        volumes = outcome.traffic_volumes()
        assert volumes[load] > 3 * np.median(volumes)


class TestVerdictRule:
    """Every outcome verdict is the detector's own ln-domain rule."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_flags_equal_classify_series(self, quick_artifacts, scenario):
        outcome = run_scenario_experiment(scenario, quick_artifacts)
        assert set(outcome.thresholds) == {0.5, 1.0}
        for p_percent in outcome.thresholds:
            np.testing.assert_array_equal(
                outcome.flags(p_percent),
                quick_artifacts.detector.classify_series(
                    outcome.scenario.series, p_percent
                ),
            )

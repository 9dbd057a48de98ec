"""Tests for the end-to-end MhmDetector (quick-scale trained fixture)."""

import numpy as np
import pytest

from repro.learn.detector import MhmDetector
from repro.sim.platform import Platform


class TestFittedDetector:
    def test_selection_rule(self, quick_detector):
        """L' chosen automatically to retain >= 99.99 % variance."""
        assert quick_detector.num_eigenmemories_ >= 1
        assert quick_detector.eigenmemory.retained_variance_ >= 0.9999

    def test_thresholds_ordered(self, quick_detector):
        assert quick_detector.threshold(0.5) <= quick_detector.threshold(1.0)

    def test_log10_is_natural_log_over_ln10(self, quick_detector, quick_artifacts):
        heat_map = quick_artifacts.data.validation[0]
        natural = quick_detector.log_density(heat_map)
        assert quick_detector.log10_density(heat_map) == pytest.approx(
            natural / np.log(10)
        )

    def test_validation_fpr_close_to_p(self, quick_detector, quick_artifacts):
        """By construction, ~p% of the calibration set is below theta_p."""
        flags = quick_detector.classify_series(
            quick_artifacts.data.validation, p_percent=1.0
        )
        assert flags.mean() <= 0.03

    def test_fresh_normal_boot_scores_high(self, quick_detector, quick_artifacts):
        """Cross-boot generalisation: an unseen normal run stays above
        theta_1 almost everywhere."""
        platform = Platform(quick_artifacts.config.with_seed(31337))
        series = platform.collect_intervals(60)
        flags = quick_detector.classify_series(series, p_percent=1.0)
        assert flags.mean() <= 0.10

    def test_garbage_map_is_anomalous(self, quick_detector, quick_artifacts):
        spec = quick_artifacts.config.spec
        rng = np.random.default_rng(0)
        garbage = rng.integers(0, 10_000, size=spec.num_cells).astype(float)
        assert quick_detector.is_anomalous(garbage, p_percent=1.0)

    def test_series_and_single_scoring_agree(self, quick_detector, quick_artifacts):
        series = quick_artifacts.data.validation[:5]
        batch = quick_detector.score_series(series)
        singles = [quick_detector.log_density(m) for m in series]
        np.testing.assert_allclose(batch, singles, rtol=1e-10)


class TestPersistence:
    def test_save_load_roundtrip(self, quick_detector, quick_artifacts, tmp_path):
        path = tmp_path / "detector.npz"
        quick_detector.save(path)
        restored = MhmDetector.load(path)
        series = quick_artifacts.data.validation[:10]
        np.testing.assert_allclose(
            restored.score_series(series),
            quick_detector.score_series(series),
            rtol=1e-10,
        )
        assert restored.thresholds.quantiles == quick_detector.thresholds.quantiles
        for q in restored.thresholds.quantiles:
            assert restored.threshold(q) == pytest.approx(quick_detector.threshold(q))


class TestUnfitted:
    def test_unfitted_operations_raise(self):
        detector = MhmDetector()
        assert not detector.is_fitted
        with pytest.raises(RuntimeError, match="not been fitted"):
            detector.log_density(np.zeros(10))
        with pytest.raises(RuntimeError, match="not been fitted"):
            detector.threshold(1.0)
        with pytest.raises(RuntimeError, match="not been fitted"):
            detector.save("/tmp/never.npz")

    def test_explicit_hyperparameters(self):
        detector = MhmDetector(
            num_eigenmemories=4, num_gaussians=3, quantiles=(0.5, 1.0, 2.0)
        )
        assert detector.num_gaussians == 3
        assert detector.quantiles == (0.5, 1.0, 2.0)


class TestSmallScaleTraining:
    def test_fit_on_synthetic_compositions(self, small_spec):
        """The detector works on any spec, not just the paper's."""
        rng = np.random.default_rng(0)
        base_patterns = rng.integers(0, 200, size=(3, small_spec.num_cells))

        def draw(n):
            picks = rng.integers(0, 3, size=n)
            noise = rng.poisson(2.0, size=(n, small_spec.num_cells))
            return base_patterns[picks] + noise

        detector = MhmDetector(num_gaussians=3, em_restarts=2, seed=1)
        detector.fit(draw(300).astype(float), draw(200).astype(float))
        normal_flags = detector.classify_series(draw(200).astype(float), 1.0)
        assert normal_flags.mean() < 0.05
        anomaly = np.full((1, small_spec.num_cells), 500.0)
        assert detector.classify_series(anomaly, 1.0)[0]

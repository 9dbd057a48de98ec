"""Tests for detection metrics."""

import numpy as np
import pytest

from repro.learn.metrics import (
    ConfusionCounts,
    alarm_streaks,
    auc,
    confusion_from_flags,
    detection_latency,
    false_positive_rate,
    roc_auc_from_scores,
    roc_curve,
    true_positive_rate,
)


class TestConfusion:
    def test_counts(self):
        flags = np.array([True, True, False, False, True])
        truth = np.array([True, False, True, False, True])
        counts = confusion_from_flags(flags, truth)
        assert counts.true_positives == 2
        assert counts.false_positives == 1
        assert counts.false_negatives == 1
        assert counts.true_negatives == 1
        assert counts.total == 5

    def test_rates(self):
        counts = ConfusionCounts(
            true_positives=8, false_positives=2, true_negatives=18, false_negatives=2
        )
        assert counts.true_positive_rate == pytest.approx(0.8)
        assert counts.false_positive_rate == pytest.approx(0.1)
        assert counts.precision == pytest.approx(0.8)
        assert counts.accuracy == pytest.approx(26 / 30)

    def test_degenerate_rates(self):
        counts = ConfusionCounts(0, 0, 0, 0)
        assert counts.false_positive_rate == 0.0
        assert counts.true_positive_rate == 0.0
        assert counts.accuracy == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_from_flags(np.array([True]), np.array([True, False]))

    def test_helper_functions(self):
        flags = np.array([True, False, True, False])
        truth = np.array([True, True, False, False])
        assert true_positive_rate(flags, truth) == pytest.approx(0.5)
        assert false_positive_rate(flags, truth) == pytest.approx(0.5)


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        truth = np.array([False, False, True, True])
        assert roc_auc_from_scores(scores, truth) == pytest.approx(1.0)

    def test_inverted_scores(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        truth = np.array([False, False, True, True])
        assert roc_auc_from_scores(scores, truth) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=5000)
        truth = rng.uniform(size=5000) > 0.5
        assert roc_auc_from_scores(scores, truth) == pytest.approx(0.5, abs=0.03)

    def test_curve_endpoints(self):
        scores = np.array([0.1, 0.9, 0.5, 0.4])
        truth = np.array([False, True, True, False])
        fpr, tpr = roc_curve(scores, truth)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_monotone_curve(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=200)
        truth = rng.uniform(size=200) > 0.5
        fpr, tpr = roc_curve(scores, truth)
        assert (np.diff(fpr) >= 0).all()
        assert (np.diff(tpr) >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both"):
            roc_curve(np.array([0.1, 0.2]), np.array([True, True]))

    def test_auc_of_diagonal(self):
        line = np.linspace(0, 1, 11)
        assert auc(line, line) == pytest.approx(0.5)


class TestDetectionLatency:
    def test_immediate_detection(self):
        flags = np.array([False, False, True, True])
        assert detection_latency(flags, attack_start_index=2) == 0

    def test_delayed_detection(self):
        flags = np.array([False, False, False, False, True])
        assert detection_latency(flags, attack_start_index=2) == 2

    def test_never_detected(self):
        flags = np.zeros(5, dtype=bool)
        assert detection_latency(flags, attack_start_index=1) == -1

    def test_pre_attack_flags_ignored(self):
        flags = np.array([True, False, False, True])
        assert detection_latency(flags, attack_start_index=2) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            detection_latency(np.zeros(3, dtype=bool), attack_start_index=4)


class TestAlarmStreaks:
    def test_running_streak_resets_on_ok(self):
        flags = np.array([1, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
        assert alarm_streaks(flags).tolist() == [1, 2, 0, 1, 2, 3, 0, 1]

    def test_skip_resets_like_ok(self):
        flags = np.array([1, 1, 1, 1], dtype=bool)
        skipped = np.array([0, 1, 0, 0], dtype=bool)
        assert alarm_streaks(flags, skipped).tolist() == [1, 0, 1, 2]

    def test_skipped_flag_never_counts(self):
        # A skipped interval's flag, if any, is ignored.
        assert alarm_streaks([True], [True]).tolist() == [0]

    def test_alarms_and_longest_run(self):
        streaks = alarm_streaks([1, 1, 1, 0, 1, 1, 1, 1])
        assert np.flatnonzero(streaks == 3).tolist() == [2, 6]
        assert streaks.max() == 4

    def test_empty_window(self):
        streaks = alarm_streaks(np.zeros(0, dtype=bool))
        assert streaks.shape == (0,)
        assert streaks.max(initial=0) == 0

"""Detection-quality metrics.

The paper reports false-positive rates against θ_p quantiles and shows
detection qualitatively (density drops in Figures 7–10).  For the
quantitative benches and ablations we add the standard machinery:
confusion counts, FPR/TPR, ROC/AUC over density scores, detection
latency (intervals from attack start to first flag) and the
K-consecutive alarm rule (:func:`alarm_streaks`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "confusion_from_flags",
    "false_positive_rate",
    "true_positive_rate",
    "roc_curve",
    "auc",
    "roc_auc_from_scores",
    "detection_latency",
    "alarm_streaks",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix counts (positive = anomalous)."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def false_positive_rate(self) -> float:
        denominator = self.false_positives + self.true_negatives
        return self.false_positives / denominator if denominator else 0.0

    @property
    def true_positive_rate(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def accuracy(self) -> float:
        return (
            (self.true_positives + self.true_negatives) / self.total
            if self.total
            else 0.0
        )


def confusion_from_flags(
    flags: np.ndarray, ground_truth: np.ndarray
) -> ConfusionCounts:
    """Build confusion counts from predicted and true anomaly flags."""
    flags = np.asarray(flags, dtype=bool)
    truth = np.asarray(ground_truth, dtype=bool)
    if flags.shape != truth.shape:
        raise ValueError("flags and ground truth must have the same shape")
    return ConfusionCounts(
        true_positives=int((flags & truth).sum()),
        false_positives=int((flags & ~truth).sum()),
        true_negatives=int((~flags & ~truth).sum()),
        false_negatives=int((~flags & truth).sum()),
    )


def false_positive_rate(flags: np.ndarray, ground_truth: np.ndarray) -> float:
    return confusion_from_flags(flags, ground_truth).false_positive_rate


def true_positive_rate(flags: np.ndarray, ground_truth: np.ndarray) -> float:
    return confusion_from_flags(flags, ground_truth).true_positive_rate


def roc_curve(
    scores: np.ndarray, ground_truth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """ROC over anomaly *scores* (higher score = more anomalous).

    Returns ``(fpr, tpr)`` arrays swept over all score thresholds.
    For log densities, pass ``-log_density`` as the score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(ground_truth, dtype=bool)
    if scores.shape != truth.shape:
        raise ValueError("scores and ground truth must have the same shape")
    if truth.all() or (~truth).all():
        raise ValueError("ROC needs both positive and negative samples")

    order = np.argsort(-scores, kind="stable")
    sorted_truth = truth[order]
    tps = np.cumsum(sorted_truth)
    fps = np.cumsum(~sorted_truth)
    tpr = np.concatenate([[0.0], tps / sorted_truth.sum()])
    fpr = np.concatenate([[0.0], fps / (~sorted_truth).sum()])
    return fpr, tpr


def auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under a (monotone) ROC curve by trapezoidal rule."""
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 2 / 1.x
    return float(trapezoid(tpr, fpr))


def roc_auc_from_scores(scores: np.ndarray, ground_truth: np.ndarray) -> float:
    """AUC over anomaly scores (higher = more anomalous)."""
    fpr, tpr = roc_curve(scores, ground_truth)
    return auc(fpr, tpr)


def detection_latency(flags: np.ndarray, attack_start_index: int) -> int:
    """Intervals from attack start to the first post-attack flag.

    Returns ``-1`` when the attack is never flagged.
    """
    flags = np.asarray(flags, dtype=bool)
    if not 0 <= attack_start_index <= len(flags):
        raise ValueError("attack_start_index out of range")
    post = flags[attack_start_index:]
    hits = np.flatnonzero(post)
    return int(hits[0]) if hits.size else -1


def alarm_streaks(flags: np.ndarray, skipped: np.ndarray | None = None) -> np.ndarray:
    """Running count of consecutive flagged intervals, per interval.

    The K-consecutive alarm rule: an OK verdict or a SKIPPED interval
    (``skipped``; an unscorable MHM is no evidence either way) resets
    the streak to 0.  An alarm fires at each interval whose streak
    first equals K, ``np.flatnonzero(streaks == K)``, and the longest
    run of flags is ``streaks.max()``.  :class:`repro.serve.worker.
    ShardWorker` keeps the same rule one record at a time.
    """
    flags = np.asarray(flags, dtype=bool)
    if skipped is not None:
        flags = flags & ~np.asarray(skipped, dtype=bool)
    index = np.arange(len(flags))
    # Each interval's last reset: itself when not flagged, else the
    # latest earlier non-flagged interval (-1 before the first).
    last_reset = np.maximum.accumulate(np.where(flags, -1, index))
    return index - last_reset

"""Temporal modelling of heat-map sequences.

The paper scores each interval *independently* (Eq. 2).  But its own
premise — a periodic workload with a fixed hyperperiod — implies strong
*temporal* structure: the reduced MHMs cycle through the GMM's basis
patterns in a nearly fixed order (interval phase k of the hyperperiod
is always generated by the same component).  Figure 10 hints at the
value of that structure: the rootkit's abnormal intervals "appear
synchronized with sha (whose period is 100 ms)".

:class:`ComponentTransitionModel` learns a first-order Markov chain
over the GMM's hard component assignments and scores test sequences by
per-step transition log-probability.  :class:`TemporalDetector`
combines it with the paper's per-interval density test: an interval is
anomalous if *either* its density or its incoming transition
probability is below the respective calibrated quantile.  This catches
phase anomalies — behaviour made of perfectly normal patterns occurring
in the wrong order — that the memoryless detector cannot see at all.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.series import HeatMapSeries, as_matrix
from .detector import MhmDetector
from .threshold import quantile_threshold

__all__ = ["ComponentTransitionModel", "TemporalDetector"]

MapsLike = Union[HeatMapSeries, np.ndarray]


class ComponentTransitionModel:
    """First-order Markov chain over GMM component assignments.

    Parameters
    ----------
    num_components:
        Number of states (the GMM's J).
    smoothing:
        Laplace smoothing added to every transition count, so unseen
        transitions get small — not zero — probability.
    """

    def __init__(self, num_components: int, smoothing: float = 0.5):
        if num_components < 1:
            raise ValueError("num_components must be >= 1")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.num_components = num_components
        self.smoothing = smoothing
        self.transition_matrix_: Optional[np.ndarray] = None
        self.initial_: Optional[np.ndarray] = None

    def fit(self, sequences: list[np.ndarray]) -> "ComponentTransitionModel":
        """Estimate transitions from one or more assignment sequences."""
        if not sequences:
            raise ValueError("need at least one sequence")
        j = self.num_components
        counts = np.full((j, j), self.smoothing)
        initial = np.full(j, self.smoothing)
        for sequence in sequences:
            sequence = np.asarray(sequence, dtype=np.int64)
            if sequence.size == 0:
                continue
            if sequence.min() < 0 or sequence.max() >= j:
                raise ValueError("component index out of range")
            initial[sequence[0]] += 1
            np.add.at(counts, (sequence[:-1], sequence[1:]), 1)
        self.transition_matrix_ = counts / counts.sum(axis=1, keepdims=True)
        self.initial_ = initial / initial.sum()
        return self

    def log_transition_probabilities(self, sequence: np.ndarray) -> np.ndarray:
        """Per-step log P(s_t | s_{t-1}); the first step uses the
        initial distribution."""
        self._require_fitted()
        sequence = np.asarray(sequence, dtype=np.int64)
        if sequence.size == 0:
            return np.empty(0)
        result = np.empty(len(sequence))
        result[0] = np.log(self.initial_[sequence[0]])
        if len(sequence) > 1:
            result[1:] = np.log(
                self.transition_matrix_[sequence[:-1], sequence[1:]]
            )
        return result

    def sequence_log_likelihood(self, sequence: np.ndarray) -> float:
        return float(self.log_transition_probabilities(sequence).sum())

    def stationary_distribution(self) -> np.ndarray:
        """Left eigenvector of the transition matrix (power iteration)."""
        self._require_fitted()
        pi = np.full(self.num_components, 1.0 / self.num_components)
        for _ in range(500):
            updated = pi @ self.transition_matrix_
            if np.abs(updated - pi).max() < 1e-12:
                break
            pi = updated
        return pi / pi.sum()

    def _require_fitted(self) -> None:
        if self.transition_matrix_ is None:
            raise RuntimeError("ComponentTransitionModel has not been fitted")


class TemporalDetector:
    """Per-interval density test + transition-probability test.

    Wraps a fitted :class:`~repro.learn.detector.MhmDetector`.  During
    :meth:`fit`, the training series' hard component assignments train
    the Markov chain, and the validation series calibrates a quantile
    threshold on per-step transition log-probabilities (same protocol
    as θ_p for densities).
    """

    def __init__(
        self,
        detector: MhmDetector,
        p_percent: float = 1.0,
        smoothing: float = 0.5,
    ):
        if not detector.is_fitted:
            raise RuntimeError("base detector must be fitted first")
        self.detector = detector
        self.p_percent = p_percent
        self.transitions = ComponentTransitionModel(
            num_components=detector.num_gaussians, smoothing=smoothing
        )
        self.transition_threshold_: Optional[float] = None

    # ------------------------------------------------------------------
    def _assignments(self, series: MapsLike) -> np.ndarray:
        reduced = self.detector.eigenmemory.transform(as_matrix(series))
        return self.detector.gmm.predict_component(reduced)

    def fit(
        self, training: MapsLike, validation: Optional[MapsLike] = None
    ) -> "TemporalDetector":
        self.transitions.fit([self._assignments(training)])
        calibration = validation if validation is not None else training
        log_probs = self.transitions.log_transition_probabilities(
            self._assignments(calibration)
        )
        # The first step is scored by the initial distribution, which
        # is not representative of steady state; drop it.
        self.transition_threshold_ = quantile_threshold(
            log_probs[1:], self.p_percent
        )
        return self

    # ------------------------------------------------------------------
    def classify_series(self, series: MapsLike) -> np.ndarray:
        """Anomaly flags: density test OR transition test."""
        self._require_fitted()
        density_flags = self.detector.classify_series(series, self.p_percent)
        log_probs = self.transitions.log_transition_probabilities(
            self._assignments(series)
        )
        transition_flags = log_probs < self.transition_threshold_
        transition_flags[0] = False  # initial step not comparable
        return density_flags | transition_flags

    def transition_flags(self, series: MapsLike) -> np.ndarray:
        """Flags from the temporal channel alone."""
        self._require_fitted()
        log_probs = self.transitions.log_transition_probabilities(
            self._assignments(series)
        )
        flags = log_probs < self.transition_threshold_
        flags[0] = False
        return flags

    def _require_fitted(self) -> None:
        if self.transition_threshold_ is None:
            raise RuntimeError("TemporalDetector has not been fitted")

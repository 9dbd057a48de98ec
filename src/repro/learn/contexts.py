"""Execution-context detector over per-interval syscall distributions.

The second detection modality (after the MHM density detector): Yoon et
al.'s SMC'15 observation that a real-time task set cycles through a
small number of *execution contexts*, each with a characteristic
system-call frequency vector.  The detector learns those contexts and
watches two complementary channels:

**Score channel** (the paper-faithful part).  k-means over the clean
training stream's per-interval syscall count vectors (reusing
:func:`repro.learn.kmeans.kmeans`) yields the context centers.  An
interval's anomaly score is its Euclidean distance to the nearest
center, normalised by a per-context scale (a high quantile of the
in-context clean training distances, floored so near-degenerate
contexts don't amplify noise).  The threshold θ_p is the
``(100 - p)``-quantile of a held-out clean validation stream's scores,
so the expected false-positive rate is p percent — the same calibration
contract as the MHM detector, with the comparison direction reversed
(score *above* θ ⇒ anomalous).

**Drift channel.**  Per-interval deviations are far too noisy to expose
a mimicry attack that pads its syscall mix back into the clean
envelope, but the *schedule* is periodic: interval ``i`` of any clean
boot draws from the phase ``i mod hyperperiod`` of the task set's
hyperperiod.  The detector keeps per-phase mean vectors (accumulated in
exact int64 sums, so run order cannot perturb them) and tracks the
cumulative sum of phase-conditional residuals.  On clean streams the
cumulative residual is a bounded random walk; any *systematic* per-
interval bias — one padded syscall per interval, say — grows linearly.
The drift statistic is the running L∞ norm of that cumulative sum; the
bound is calibrated as ``drift_multiplier x (max clean full-run drift)
+ drift_margin``.  The multiplier covers windows that start mid-run:
for any span, ``|D(t) - D(s)| <= 2 max_t |D(t)|`` by the triangle
inequality.

Both channels are pure functions of the fitted arrays; scoring runs
through the :func:`repro.kernels.context_scores` dispatching kernel
(vectorized backend with a scalar ``math.fsum`` oracle).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

import numpy as np

from .. import kernels
from ..kernels.blas_threads import one_blas_thread
from ..obs import span
from .kmeans import KMeansResult, kmeans
from .threshold import DEFAULT_QUANTILES

__all__ = ["ContextDetector", "cluster_contexts", "sort_rows"]


def sort_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order — a canonical form of the multiset.

    Clustering the *sorted* rows makes the fitted contexts a pure
    function of the multiset of training vectors: permuting the
    training stream (within or across runs) cannot move a single bit of
    the k-means result.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected an (N, D) matrix")
    order = np.lexsort(matrix.T[::-1])
    return matrix[order]


def cluster_contexts(
    rows: np.ndarray, num_contexts: int, seed: int = 0
) -> KMeansResult:
    """k-means contexts over a canonicalised (row-sorted) matrix."""
    canonical = np.asarray(sort_rows(rows), dtype=np.float64)
    return kmeans(canonical, num_contexts, np.random.default_rng(seed))


def _as_counts(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("expected an (intervals, syscalls) matrix")
    counts = arr.astype(np.int64)
    if not np.array_equal(counts, arr):
        raise ValueError("syscall matrices must hold integer counts")
    return counts


class ContextDetector:
    """k-means execution contexts + phase-drift over syscall vectors.

    Parameters
    ----------
    num_contexts:
        k, the number of execution contexts.
    scale_quantile:
        Per-context scale = this percentile of the in-context clean
        training distances (so a "tight" context flags small
        excursions and a naturally noisy one doesn't).
    scale_floor:
        Lower bound on every per-context scale; guards contexts whose
        training distances are all (near) zero.
    quantiles:
        The p values (percent) to calibrate θ_p for, mirroring the MHM
        detector's bank.
    hyperperiod:
        Schedule period in monitoring intervals for the drift channel
        (the paper taskset's 100 ms hyperperiod over 10 ms intervals).
    drift_multiplier, drift_margin:
        Drift bound = ``multiplier x max clean full-run drift +
        margin``.
    seed:
        Seeds k-means++ initialisation.
    """

    def __init__(
        self,
        num_contexts: int = 12,
        scale_quantile: float = 99.0,
        scale_floor: float = 0.5,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        hyperperiod: int = 10,
        drift_multiplier: float = 2.0,
        drift_margin: float = 1.0,
        seed: int = 0,
    ):
        if num_contexts < 1:
            raise ValueError("num_contexts must be >= 1")
        if not 0.0 < scale_quantile <= 100.0:
            raise ValueError("scale_quantile must be in (0, 100]")
        if scale_floor < 0:
            raise ValueError("scale_floor must be non-negative")
        if hyperperiod < 1:
            raise ValueError("hyperperiod must be >= 1")
        if drift_multiplier < 1.0:
            raise ValueError(
                "drift_multiplier must be >= 1 (mid-run spans need the "
                "triangle-inequality factor)"
            )
        self.num_contexts = num_contexts
        self.scale_quantile = float(scale_quantile)
        self.scale_floor = float(scale_floor)
        self.quantiles = tuple(float(q) for q in quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 100.0:
                raise ValueError("quantiles must be in (0, 100)")
        self.hyperperiod = int(hyperperiod)
        self.drift_multiplier = float(drift_multiplier)
        self.drift_margin = float(drift_margin)
        self.seed = int(seed)

        self.centers_: Optional[np.ndarray] = None
        self.scales_: Optional[np.ndarray] = None
        self.thresholds_: dict[float, float] = {}
        self.phase_sums_: Optional[np.ndarray] = None
        self.phase_counts_: Optional[np.ndarray] = None
        self.clean_drift_max_: Optional[float] = None
        self.drift_bound_: Optional[float] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @one_blas_thread()
    def fit(
        self,
        training_runs: Sequence[np.ndarray],
        validation: np.ndarray,
    ) -> "ContextDetector":
        """Learn contexts, scales, thresholds and the drift bound.

        Parameters
        ----------
        training_runs:
            One integer ``(intervals, syscalls)`` matrix per fresh clean
            boot; row *t* of each is interval *t* of that boot (the
            drift channel needs the phase alignment, which is why runs
            are passed separately rather than pre-concatenated).
        validation:
            A held-out clean boot's matrix, for θ calibration.
        """
        runs = [_as_counts(run) for run in training_runs]
        if not runs:
            raise ValueError("at least one training run is required")
        widths = {run.shape[1] for run in runs}
        validation = _as_counts(validation)
        widths.add(validation.shape[1])
        if len(widths) != 1:
            raise ValueError("all matrices must share one syscall vocabulary")

        with span("contexts.fit.kmeans"):
            pooled = np.vstack(runs)
            result = cluster_contexts(pooled, self.num_contexts, self.seed)
            self.centers_ = result.centers

        with span("contexts.fit.scales"):
            canonical = np.asarray(sort_rows(pooled), dtype=np.float64)
            labels, distances = kernels.nearest_context_batch(
                canonical, self.centers_
            )
            scales = np.full(self.num_contexts, self.scale_floor)
            for j in range(self.num_contexts):
                members = distances[labels == j]
                if members.size:
                    scales[j] = max(
                        float(np.percentile(members, self.scale_quantile)),
                        self.scale_floor,
                    )
            self.scales_ = scales

        with span("contexts.fit.phases"):
            dim = pooled.shape[1]
            sums = np.zeros((self.hyperperiod, dim), dtype=np.int64)
            counts = np.zeros(self.hyperperiod, dtype=np.int64)
            for run in runs:
                phases = np.arange(len(run)) % self.hyperperiod
                np.add.at(sums, phases, run)
                counts += np.bincount(phases, minlength=self.hyperperiod)
            if (counts == 0).any():
                raise ValueError(
                    "training runs must cover every schedule phase "
                    f"(hyperperiod={self.hyperperiod})"
                )
            self.phase_sums_ = sums
            self.phase_counts_ = counts

        with span("contexts.fit.thresholds"):
            scores = self.score_series(validation)
            self.thresholds_ = {
                p: float(np.quantile(scores, 1.0 - p / 100.0))
                for p in self.quantiles
            }

        with span("contexts.fit.drift"):
            clean_max = 0.0
            for run in runs:
                drift = self.drift_series(run, start_index=0)
                if drift.size:
                    clean_max = max(clean_max, float(drift.max()))
            validation_drift = self.drift_series(validation, start_index=0)
            if validation_drift.size:
                clean_max = max(clean_max, float(validation_drift.max()))
            self.clean_drift_max_ = clean_max
            self.drift_bound_ = (
                self.drift_multiplier * clean_max + self.drift_margin
            )
        return self

    @property
    def is_fitted(self) -> bool:
        # Centers are set first during fit(); the scoring helpers the
        # later fit stages call only need the earlier stages' state.
        return self.centers_ is not None

    @property
    def phase_means_(self) -> np.ndarray:
        self._require_fitted()
        return self.phase_sums_ / self.phase_counts_[:, np.newaxis]

    # ------------------------------------------------------------------
    # Score channel
    # ------------------------------------------------------------------
    def score_series(self, matrix: np.ndarray) -> np.ndarray:
        """Scaled distance-to-nearest-context score per interval."""
        self._require_fitted()
        return kernels.context_scores(matrix, self.centers_, self.scales_)

    def threshold(self, p_percent: float) -> float:
        """θ_p in score space (score above θ_p ⇒ anomalous)."""
        self._require_fitted()
        try:
            return self.thresholds_[float(p_percent)]
        except KeyError:
            available = sorted(self.thresholds_)
            raise KeyError(
                f"no context θ_{p_percent} calibrated (available: {available})"
            ) from None

    def flag_scores(self, scores: np.ndarray, p_percent: float) -> np.ndarray:
        theta = self.threshold(p_percent)
        return np.asarray(scores, dtype=np.float64) > theta

    def classify_series(
        self, matrix: np.ndarray, p_percent: float = 1.0
    ) -> np.ndarray:
        """Boolean per-interval anomaly flags for a syscall matrix."""
        return self.flag_scores(self.score_series(matrix), p_percent)

    # ------------------------------------------------------------------
    # Drift channel
    # ------------------------------------------------------------------
    def drift_series(
        self, matrix: np.ndarray, start_index: int = 0
    ) -> np.ndarray:
        """Running L∞ norm of the phase-conditional residual cumsum.

        ``start_index`` is the absolute interval index of the matrix's
        first row on its device's own clock — the phase key, so a
        stream windowed mid-run stays phase-aligned.
        """
        self._require_fitted()
        data = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if data.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        phases = (np.arange(len(data)) + int(start_index)) % self.hyperperiod
        residuals = data - self.phase_means_[phases]
        cumulative = np.cumsum(residuals, axis=0)
        return np.abs(cumulative).max(axis=1)

    def drift_exceeded(self, matrix: np.ndarray, start_index: int = 0) -> bool:
        """Whether the stream's drift statistic ever clears the bound."""
        drift = self.drift_series(matrix, start_index=start_index)
        return bool(drift.size) and float(drift.max()) > self.drift_bound_

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """Fitted state as a flat ``name -> ndarray`` dict (cacheable)."""
        self._require_fitted()
        quantile_keys = np.array(sorted(self.thresholds_), dtype=np.float64)
        quantile_values = np.array(
            [self.thresholds_[k] for k in quantile_keys], dtype=np.float64
        )
        return {
            "context_centers": np.asarray(self.centers_, dtype=np.float64),
            "context_scales": np.asarray(self.scales_, dtype=np.float64),
            "context_quantile_keys": quantile_keys,
            "context_quantile_values": quantile_values,
            "context_phase_sums": np.asarray(self.phase_sums_, dtype=np.int64),
            "context_phase_counts": np.asarray(
                self.phase_counts_, dtype=np.int64
            ),
            "context_drift": np.array(
                [self.clean_drift_max_, self.drift_bound_], dtype=np.float64
            ),
            "context_params": np.array(
                [
                    self.scale_quantile,
                    self.scale_floor,
                    self.drift_multiplier,
                    self.drift_margin,
                    float(self.seed),
                ],
                dtype=np.float64,
            ),
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "ContextDetector":
        """Rebuild a fitted detector from :meth:`to_arrays` output."""
        params = np.asarray(arrays["context_params"], dtype=np.float64)
        detector = cls(
            num_contexts=len(arrays["context_centers"]),
            scale_quantile=float(params[0]),
            scale_floor=float(params[1]),
            quantiles=tuple(
                float(k) for k in arrays["context_quantile_keys"]
            ),
            hyperperiod=len(arrays["context_phase_sums"]),
            drift_multiplier=float(params[2]),
            drift_margin=float(params[3]),
            seed=int(params[4]),
        )
        detector.centers_ = np.asarray(
            arrays["context_centers"], dtype=np.float64
        )
        detector.scales_ = np.asarray(
            arrays["context_scales"], dtype=np.float64
        )
        detector.thresholds_ = {
            float(k): float(v)
            for k, v in zip(
                arrays["context_quantile_keys"],
                arrays["context_quantile_values"],
            )
        }
        detector.phase_sums_ = np.asarray(
            arrays["context_phase_sums"], dtype=np.int64
        )
        detector.phase_counts_ = np.asarray(
            arrays["context_phase_counts"], dtype=np.int64
        )
        drift = np.asarray(arrays["context_drift"], dtype=np.float64)
        detector.clean_drift_max_ = float(drift[0])
        detector.drift_bound_ = float(drift[1])
        return detector

    def save(self, path) -> None:
        np.savez_compressed(path, **self.to_arrays())

    @classmethod
    def load(cls, path) -> "ContextDetector":
        with np.load(path) as data:
            return cls.from_arrays({name: data[name] for name in data.files})

    def fingerprint(self) -> str:
        """sha256 over the complete fitted state, last-ulp sensitive."""
        arrays = self.to_arrays()
        digest = hashlib.sha256()
        for name in sorted(arrays):
            array = np.ascontiguousarray(arrays[name])
            digest.update(name.encode())
            digest.update(str(array.dtype).encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("ContextDetector has not been fitted")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.is_fitted:
            return "ContextDetector(unfitted)"
        return (
            f"ContextDetector(k={self.num_contexts}, "
            f"L={self.hyperperiod}, thresholds={sorted(self.thresholds_)}, "
            f"drift_bound={self.drift_bound_:.3f})"
        )

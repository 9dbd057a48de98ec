"""Hot-path kernels with switchable backends.

The pipeline's three hot loops — Memometer cell counting over
instruction-fetch traces, eigenmemory (PCA) projection of whole MHM
batches, and GMM log-density scoring (EM E-step, threshold
calibration, online detection) — are concentrated here as *kernels*
with two interchangeable backends:

``vectorized`` (default)
    Batched NumPy/BLAS implementations: one ``np.bincount`` per trace
    burst, one GEMM per MHM batch, one pass over all J mixture
    components for N samples.  This is the production path.

``reference``
    Deliberately scalar pure-Python implementations that follow the
    paper's formulas one element at a time (accumulating with
    ``math.fsum``, so they are *more* accurate than a naive loop).
    They exist as the differential-test oracle: slow, obvious,
    independently written.  ``tests/kernels/test_differential.py``
    holds the vectorized backend to the oracle — bit-identical for
    integer counting, ≤1e-9 for floating point — on hypothesis-generated
    inputs and on the end-to-end golden pipeline.

Select the backend with the ``REPRO_KERNELS`` environment variable
(``reference`` or ``vectorized``), or programmatically::

    from repro import kernels
    kernels.set_backend("reference")      # process-wide
    with kernels.use_backend("reference"):  # scoped
        ...

Each backend implements only the primitives — :func:`count_cells`,
:func:`project_batch`, :func:`reconstruct_batch`,
:func:`component_log_densities`, :func:`nearest_context_batch` and
:func:`logsumexp` — and every primitive dispatches per call, so a
switch takes effect immediately.  The derived kernels
(:func:`log_density_batch`, :func:`responsibilities_batch`,
:func:`context_scores`) and the fused fleet-scoring path
(:func:`fleet_score_batch` / :class:`FleetScorer`) are composed here
once, from the dispatching primitives, and compute in float64 on both
backends: under the scalar reference backend the same compositions are
the independent oracle.  ``repro.bench`` times each kernel through this
facade under both backends and records the speedups in
``BENCH_kernels.json``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blas_threads import one_blas_thread

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackendError",
    "active_backend",
    "set_backend",
    "use_backend",
    "backend_module",
    "count_cells",
    "project_batch",
    "reconstruct_batch",
    "component_log_densities",
    "log_density_batch",
    "responsibilities_batch",
    "nearest_context_batch",
    "context_scores",
    "logsumexp",
    "safe_log_weights",
    "FleetScores",
    "fleet_score_batch",
    "FleetScorer",
]

#: Recognised backend names.
BACKENDS = ("reference", "vectorized")
#: Environment variable that selects the backend for a process.
ENV_VAR = "REPRO_KERNELS"
#: Backend used when neither an override nor the env var is set.
DEFAULT_BACKEND = "vectorized"

#: Process-wide programmatic override (survives env changes).
_override: Optional[str] = None


class KernelBackendError(ValueError):
    """Raised for an unknown ``REPRO_KERNELS`` / backend name."""


def _validate(name: str) -> str:
    name = str(name).strip().lower()
    if name not in BACKENDS:
        raise KernelBackendError(
            f"unknown kernels backend {name!r}; choose from {list(BACKENDS)} "
            f"(set via the {ENV_VAR} environment variable or "
            f"repro.kernels.set_backend)"
        )
    return name


def active_backend() -> str:
    """The backend name kernels will dispatch to right now."""
    if _override is not None:
        return _override
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return DEFAULT_BACKEND
    return _validate(raw)


def set_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide backend override.

    The override takes precedence over the ``REPRO_KERNELS``
    environment variable.
    """
    global _override
    _override = None if name is None else _validate(name)


@contextmanager
def use_backend(name: str):
    """Scoped backend switch (restores the previous override on exit)."""
    global _override
    previous = _override
    _override = _validate(name)
    try:
        yield
    finally:
        _override = previous


def backend_module(name: Optional[str] = None):
    """The implementation module for ``name`` (default: active backend)."""
    resolved = _validate(name) if name is not None else active_backend()
    if resolved == "reference":
        from . import reference

        return reference
    from . import vectorized

    return vectorized


# ----------------------------------------------------------------------
# Shared helpers (backend-independent)
# ----------------------------------------------------------------------
def safe_log_weights(weights: np.ndarray) -> np.ndarray:
    """``log λ_j`` with exact ``-inf`` for collapsed (zero) weights.

    ``np.log`` on a zero weight emits a divide-by-zero RuntimeWarning —
    which ``make test-fast`` promotes to an error — before returning
    the ``-inf`` we want anyway.  A collapsed mixture component must
    score as impossible, silently.
    """
    weights = np.asarray(weights, dtype=np.float64)
    out = np.full(weights.shape, -np.inf)
    positive = weights > 0
    np.log(weights, out=out, where=positive)
    return out


# ----------------------------------------------------------------------
# Dispatching kernel entry points
# ----------------------------------------------------------------------
def count_cells(
    addresses: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    base_address: int,
    region_size: int,
    shift: int,
    num_cells: int,
) -> tuple:
    """Memometer histogramming: per-cell access counts for one burst.

    Implements the Section 3.1 datapath — ``offset = addr - base``,
    drop unless ``0 <= offset < S``, ``idx = offset >> g`` — over a
    whole address burst.  Returns ``(counts, accepted)`` where
    ``counts`` is an ``int64`` array of length ``num_cells`` holding
    the (unsaturated) increments and ``accepted`` is the total weight
    that passed the region filter.  Integer arithmetic throughout:
    both backends are bit-identical (exact for totals below 2**53).
    """
    return backend_module().count_cells(
        addresses,
        weights,
        base_address=base_address,
        region_size=region_size,
        shift=shift,
        num_cells=num_cells,
    )


def project_batch(
    matrix: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> np.ndarray:
    """Eigenmemory projection ``(M - Ψ) Uᵀ`` for a whole MHM batch."""
    return backend_module().project_batch(matrix, mean, components)


def reconstruct_batch(
    weights: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> np.ndarray:
    """Inverse eigenmemory transform ``W U + Ψ`` for a weight batch."""
    return backend_module().reconstruct_batch(weights, mean, components)


def component_log_densities(
    data: np.ndarray, means: np.ndarray, cholesky_factors: np.ndarray
) -> np.ndarray:
    """``(N, J)`` per-component Gaussian log densities."""
    return backend_module().component_log_densities(data, means, cholesky_factors)


def nearest_context_batch(
    matrix: np.ndarray, centers: np.ndarray
) -> tuple:
    """Nearest execution context per syscall-frequency vector.

    The hot loop of the second detection modality
    (:mod:`repro.learn.contexts`): for each row of ``matrix`` find the
    closest k-means center and its Euclidean distance.  Returns
    ``(labels, distances)`` with shapes ``(N,)`` — ``labels`` int64,
    ``distances`` float64.  Ties break to the lowest center index in
    both backends.  The computation is row-separable (no cross-row
    reduction), so — unlike the BLAS-backed projection — a row's result
    is independent of its batch-mates at any batch shape.
    """
    return backend_module().nearest_context_batch(matrix, centers)


def logsumexp(values: np.ndarray, axis: int = 1) -> np.ndarray:
    """Numerically stable ``log Σ exp`` along ``axis``.

    All-``-inf`` rows reduce to ``-inf`` without warnings; widely
    separated finite values never overflow.
    """
    return backend_module().logsumexp(values, axis=axis)


# ----------------------------------------------------------------------
# Compositions of the dispatching primitives
# ----------------------------------------------------------------------
def _log_joint(data, weights, means, cholesky_factors) -> np.ndarray:
    """``(N, J)`` log of ``λ_j · N(x_n; μ_j, Σ_j)``: Eq. 2's summands."""
    return component_log_densities(data, means, cholesky_factors) + safe_log_weights(
        weights
    )


def log_density_batch(
    data: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
) -> np.ndarray:
    """GMM mixture log density ``ln Pr(M)`` for N samples in one pass.

    Shared by EM's likelihood evaluation, threshold calibration and
    ``MhmDetector`` scoring (paper Eq. 2, evaluated in log space with
    the log-sum-exp trick).
    """
    return logsumexp(_log_joint(data, weights, means, cholesky_factors), axis=1)


def responsibilities_batch(
    data: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
) -> tuple:
    """EM E-step: ``(log_norm, responsibilities)`` for N samples.

    ``log_norm`` is the per-sample mixture log density (shape ``(N,)``)
    and ``responsibilities`` the ``(N, J)`` posterior memberships.
    """
    log_joint = _log_joint(data, weights, means, cholesky_factors)
    log_norm = logsumexp(log_joint, axis=1)
    return log_norm, np.exp(log_joint - log_norm[:, np.newaxis])


def context_scores(
    data: np.ndarray, centers: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Scaled distance to the nearest execution context, per row.

    The second modality's anomaly score: each row's
    :func:`nearest_context_batch` distance divided by that context's
    scale.  A zero-scale context scores ``0`` at zero distance and
    ``inf`` at any positive distance.  Shared by
    ``ContextDetector.score_series`` and :func:`fleet_score_batch`.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    labels, distances = nearest_context_batch(data, centers)
    row_scales = np.asarray(scales, dtype=np.float64)[labels]
    scores = np.zeros(len(distances), dtype=np.float64)
    positive = row_scales > 0
    np.divide(distances, row_scales, out=scores, where=positive)
    scores[~positive & (distances > 0)] = np.inf
    return scores


# ----------------------------------------------------------------------
# Fused fleet scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetScores:
    """One fused fleet-scoring call's results, in input-row order.

    ``context_scores`` and ``context_residuals`` are ``None`` unless
    the call carried the second modality's model arrays; residuals
    additionally need the per-row phase indices.  All arrays are
    float64.
    """

    log_densities: np.ndarray
    context_scores: Optional[np.ndarray] = None
    context_residuals: Optional[np.ndarray] = None


@one_blas_thread()
def fleet_score_batch(
    matrix: np.ndarray,
    mean: np.ndarray,
    components: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
    *,
    pad_to: Optional[int] = None,
    syscalls: Optional[np.ndarray] = None,
    centers: Optional[np.ndarray] = None,
    scales: Optional[np.ndarray] = None,
    phase_means: Optional[np.ndarray] = None,
    phases: Optional[np.ndarray] = None,
) -> FleetScores:
    """Score a whole cross-device batch through one fused call.

    Composes the dispatching kernels: :func:`project_batch` →
    :func:`log_density_batch` and (when the context-model arrays are
    given) :func:`context_scores` → phase-residual extraction, each on
    the active backend.

    ``pad_to=None`` scores the batch at its own shape — bit-identical
    to ``detector.score_series`` on the same matrix.  ``pad_to=k``
    zero-pads to fixed ``k``-row chunks, keeping every row's score a
    pure function of its own vector, whatever its batch-mates (the
    serial ≡ sharded digest contract).
    """
    if pad_to is not None and pad_to < 1:
        raise ValueError("pad_to must be >= 1 (or None for whole-batch)")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D batch of MHM vectors")
    if centers is not None and syscalls is None:
        raise ValueError("context centers given without a syscall batch")
    if phases is not None:
        phases = np.asarray(phases, dtype=np.int64)
        if syscalls is not None and len(phases) != len(
            np.atleast_2d(np.asarray(syscalls))
        ):
            raise ValueError("phases must align with the syscall batch rows")
    if pad_to is None:
        densities = log_density_batch(
            project_batch(matrix, mean, components),
            weights,
            means,
            cholesky_factors,
        )
    else:
        densities = np.empty(len(matrix), dtype=np.float64)
        for start in range(0, len(matrix), pad_to):
            chunk = matrix[start : start + pad_to]
            n = len(chunk)
            padded = np.zeros((pad_to, matrix.shape[1]), dtype=np.float64)
            padded[:n] = chunk
            densities[start : start + n] = log_density_batch(
                project_batch(padded, mean, components),
                weights,
                means,
                cholesky_factors,
            )[:n]
    scores = residuals = None
    if centers is not None:
        data = np.atleast_2d(np.asarray(syscalls, dtype=np.float64))
        scores = context_scores(data, centers, scales)
        if phase_means is not None and phases is not None:
            residuals = data - np.asarray(phase_means, dtype=np.float64)[phases]
    return FleetScores(
        log_densities=densities,
        context_scores=scores,
        context_residuals=residuals,
    )


class FleetScorer:
    """Bound model arrays + the fused kernel: the fleet hot path.

    Wraps one profile's fitted parameters (both modalities) so the
    serving layer, ``repro detect`` and the bench can score batches
    with a single call and zero per-call model marshalling.
    ``from_detectors`` is duck-typed — it only reads fitted-array
    attributes — so this module never imports :mod:`repro.learn`.
    """

    def __init__(
        self,
        *,
        pca_mean: np.ndarray,
        pca_components: np.ndarray,
        gmm_weights: np.ndarray,
        gmm_means: np.ndarray,
        gmm_cholesky_factors: np.ndarray,
        context_centers: Optional[np.ndarray] = None,
        context_scales: Optional[np.ndarray] = None,
        context_phase_means: Optional[np.ndarray] = None,
        context_hyperperiod: Optional[int] = None,
    ):
        self.pca_mean = np.asarray(pca_mean, dtype=np.float64)
        self.pca_components = np.asarray(pca_components, dtype=np.float64)
        self.gmm_weights = np.asarray(gmm_weights, dtype=np.float64)
        self.gmm_means = np.asarray(gmm_means, dtype=np.float64)
        self.gmm_cholesky_factors = np.asarray(
            gmm_cholesky_factors, dtype=np.float64
        )
        self.context_centers = (
            np.asarray(context_centers, dtype=np.float64)
            if context_centers is not None
            else None
        )
        self.context_scales = (
            np.asarray(context_scales, dtype=np.float64)
            if context_scales is not None
            else None
        )
        self.context_phase_means = (
            np.asarray(context_phase_means, dtype=np.float64)
            if context_phase_means is not None
            else None
        )
        self.context_hyperperiod = (
            int(context_hyperperiod) if context_hyperperiod is not None else None
        )

    @property
    def has_context(self) -> bool:
        return self.context_centers is not None

    @classmethod
    def from_detectors(cls, detector, context=None) -> "FleetScorer":
        """Build from a fitted ``MhmDetector`` (+ optional
        ``ContextDetector``) via attribute access only."""
        eigen = detector.eigenmemory
        params = detector.gmm.parameters
        kwargs = dict(
            pca_mean=eigen.mean_,
            pca_components=eigen.components_,
            gmm_weights=params.weights,
            gmm_means=params.means,
            gmm_cholesky_factors=params.cholesky_factors,
        )
        if context is not None:
            kwargs.update(
                context_centers=context.centers_,
                context_scales=context.scales_,
                context_phase_means=context.phase_means_,
                context_hyperperiod=context.hyperperiod,
            )
        return cls(**kwargs)

    def score(
        self,
        matrix: np.ndarray,
        *,
        syscalls: Optional[np.ndarray] = None,
        interval_indices: Optional[np.ndarray] = None,
        pad_to: Optional[int] = None,
    ) -> FleetScores:
        """Fused scores for one cross-device batch.

        ``interval_indices`` (each row's absolute interval index on its
        device's clock) keys the drift channel's phase alignment; when
        given alongside ``syscalls``, the result carries the per-row
        phase residuals the caller's cumsum consumes.
        """
        if syscalls is not None and not self.has_context:
            raise ValueError("scorer has no context model for a syscall batch")
        phases = None
        if syscalls is not None and interval_indices is not None:
            phases = (
                np.asarray(interval_indices, dtype=np.int64)
                % self.context_hyperperiod
            )
        return fleet_score_batch(
            matrix,
            self.pca_mean,
            self.pca_components,
            self.gmm_weights,
            self.gmm_means,
            self.gmm_cholesky_factors,
            pad_to=pad_to,
            syscalls=syscalls if self.has_context else None,
            centers=self.context_centers if syscalls is not None else None,
            scales=self.context_scales if syscalls is not None else None,
            phase_means=(
                self.context_phase_means if phases is not None else None
            ),
            phases=phases,
        )

"""Batched NumPy implementations of the hot-path kernels.

This is the production backend: one ``np.bincount`` per trace burst,
one GEMM per MHM batch, and per-component triangular solves that are
batched over all N samples at once (N is the large axis; J ≤ ~10).

The numerics here are the pipeline's canonical numerics — the golden
regression fixtures were produced by exactly these operations — so
changes must preserve results bit-for-bit or regenerate the goldens.
The scalar oracle in :mod:`repro.kernels.reference` independently
recomputes every kernel; the differential suite keeps the two within
1e-9 (bit-identical for integer counting).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

LOG_2PI = float(np.log(2.0 * np.pi))


# ----------------------------------------------------------------------
# Memometer counting
# ----------------------------------------------------------------------
def count_cells(
    addresses: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    base_address: int,
    region_size: int,
    shift: int,
    num_cells: int,
) -> tuple[np.ndarray, int]:
    addresses = np.asarray(addresses, dtype=np.int64)
    if weights is None:
        weights = np.ones(addresses.shape, dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=np.int64)
    offsets = addresses - base_address
    in_region = (offsets >= 0) & (offsets < region_size)
    indices = offsets[in_region] >> shift
    kept = weights[in_region]
    counts = np.bincount(indices, weights=kept, minlength=num_cells).astype(
        np.int64
    )
    return counts, int(kept.sum())


# ----------------------------------------------------------------------
# Eigenmemory projection
# ----------------------------------------------------------------------
def project_batch(
    matrix: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    return (matrix - mean) @ components.T


def reconstruct_batch(
    weights: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    return weights @ components + mean


# ----------------------------------------------------------------------
# GMM log densities
# ----------------------------------------------------------------------
def _solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return solve_triangular(lower, rhs, lower=True, check_finite=False)


def _mvn_logpdf(
    x: np.ndarray, mean: np.ndarray, cholesky_factor: np.ndarray
) -> np.ndarray:
    dim = x.shape[1]
    centered = x - mean
    solved = _solve_lower(cholesky_factor, centered.T).T
    mahalanobis_sq = np.einsum("nd,nd->n", solved, solved)
    log_det = 2.0 * np.log(np.diag(cholesky_factor)).sum()
    return -0.5 * (dim * LOG_2PI + log_det + mahalanobis_sq)


def component_log_densities(
    data: np.ndarray, means: np.ndarray, cholesky_factors: np.ndarray
) -> np.ndarray:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    columns = [
        _mvn_logpdf(data, means[j], cholesky_factors[j])
        for j in range(len(means))
    ]
    return np.stack(columns, axis=1)


def nearest_context_batch(
    matrix: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    centers = np.asarray(centers, dtype=np.float64)
    diff = matrix[:, np.newaxis, :] - centers[np.newaxis, :, :]
    squared = np.einsum("nkd,nkd->nk", diff, diff)
    labels = squared.argmin(axis=1).astype(np.int64)
    distances = np.sqrt(squared[np.arange(len(matrix)), labels])
    return labels, distances


def logsumexp(values: np.ndarray, axis: int = 1) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    peak = values.max(axis=axis, keepdims=True)
    # Guard against -inf peaks (all components impossible): the row's
    # true reduction is -inf; computing it would take log(0), whose
    # FP divide-by-zero warning test-fast promotes to an error.
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        result = np.log(np.exp(values - safe_peak).sum(axis=axis)) + safe_peak.squeeze(
            axis
        )
    return result


def _log_joint(
    data: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
) -> np.ndarray:
    from . import safe_log_weights

    return component_log_densities(data, means, cholesky_factors) + safe_log_weights(
        weights
    )


def log_density_batch(
    data: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
) -> np.ndarray:
    return logsumexp(_log_joint(data, weights, means, cholesky_factors), axis=1)


def responsibilities_batch(
    data: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    log_joint = _log_joint(data, weights, means, cholesky_factors)
    log_norm = logsumexp(log_joint, axis=1)
    responsibilities = np.exp(log_joint - log_norm[:, np.newaxis])
    return log_norm, responsibilities


# ----------------------------------------------------------------------
# Fused fleet scoring
# ----------------------------------------------------------------------
def _fleet_densities_f64(
    matrix: np.ndarray,
    mean: np.ndarray,
    components: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
    pad_to: Optional[int],
) -> np.ndarray:
    """The digest-bearing float64 path.

    Executes exactly the op sequence of the historical unfused chain —
    ``project_batch`` then ``log_density_batch`` per fixed-shape chunk
    (or once, whole-batch, for ``pad_to=None``) — so results are
    bit-identical to the pre-fused serving and detect paths.
    """
    if pad_to is None:
        reduced = project_batch(matrix, mean, components)
        return log_density_batch(reduced, weights, means, cholesky_factors)
    out = np.empty(len(matrix), dtype=np.float64)
    for start in range(0, len(matrix), pad_to):
        chunk = matrix[start : start + pad_to]
        n = len(chunk)
        padded = np.zeros((pad_to, matrix.shape[1]), dtype=np.float64)
        padded[:n] = chunk
        reduced = project_batch(padded, mean, components)
        densities = log_density_batch(
            reduced, weights, means, cholesky_factors
        )
        out[start : start + n] = densities[:n]
    return out


def _logsumexp_f32(values: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp that stays in float32 (same -inf guard as
    the float64 :func:`logsumexp`)."""
    peak = values.max(axis=1, keepdims=True)
    safe_peak = np.where(np.isfinite(peak), peak, np.float32(0.0))
    with np.errstate(divide="ignore"):
        result = np.log(np.exp(values - safe_peak).sum(axis=1)) + safe_peak[:, 0]
    return result


def _fleet_densities_f32(
    matrix: np.ndarray,
    mean: np.ndarray,
    components: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
    pad_to: Optional[int],
) -> np.ndarray:
    """The opt-in float32 fast path: sgemm projection + float32
    triangular solves, same fixed-shape chunking as the float64 path
    (so scores stay pure functions of each row's own vector), results
    cast back to float64.  Error vs the float64 oracle is bounded by
    ``repro.kernels.FLOAT32_ULP_BUDGET``.
    """
    from . import safe_log_weights

    mean32 = np.asarray(mean, dtype=np.float32)
    components32_t = np.ascontiguousarray(
        np.asarray(components, dtype=np.float32).T
    )
    means32 = np.atleast_2d(np.asarray(means, dtype=np.float32))
    chols32 = np.asarray(cholesky_factors, dtype=np.float32)
    log_weights32 = safe_log_weights(weights).astype(np.float32)
    num_components, dim = means32.shape
    # Per-component -0.5 * (d ln 2π + ln|Σ_j|) + ln λ_j, precomputed in
    # float32 once per call.
    offsets = np.empty(num_components, dtype=np.float32)
    for j in range(num_components):
        # A diagonal entry can underflow to 0 on the float64→float32
        # cast; the component then scores -inf (impossible), silently.
        with np.errstate(divide="ignore"):
            log_det = np.float32(2.0) * np.log(np.diag(chols32[j])).sum()
        offsets[j] = (
            np.float32(-0.5) * (np.float32(dim * LOG_2PI) + log_det)
            + log_weights32[j]
        )
    out = np.empty(len(matrix), dtype=np.float64)
    step = pad_to if pad_to is not None else max(len(matrix), 1)
    for start in range(0, len(matrix), step):
        chunk = matrix[start : start + step]
        n = len(chunk)
        rows = step if pad_to is not None else n
        padded = np.zeros((rows, matrix.shape[1]), dtype=np.float32)
        padded[:n] = chunk
        reduced = (padded - mean32) @ components32_t
        log_joint = np.empty((rows, num_components), dtype=np.float32)
        for j in range(num_components):
            centered = reduced - means32[j]
            solved = _solve_lower(chols32[j], centered.T).T
            mahalanobis_sq = np.einsum("nd,nd->n", solved, solved)
            log_joint[:, j] = (
                np.float32(-0.5) * mahalanobis_sq + offsets[j]
            )
        out[start : start + n] = _logsumexp_f32(log_joint)[:n].astype(
            np.float64
        )
    return out


def _context_scores_f64(
    data: np.ndarray, centers: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Scaled nearest-context scores — the exact op sequence of
    ``ContextDetector.score_series`` (bit-identical)."""
    if data.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    labels, distances = nearest_context_batch(data, centers)
    row_scales = np.asarray(scales, dtype=np.float64)[labels]
    scores = np.zeros(len(distances), dtype=np.float64)
    positive = row_scales > 0
    np.divide(distances, row_scales, out=scores, where=positive)
    scores[~positive & (distances > 0)] = np.inf
    return scores


def _context_scores_f32(
    data: np.ndarray, centers: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    if data.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    data32 = data.astype(np.float32)
    centers32 = np.asarray(centers, dtype=np.float32)
    diff = data32[:, np.newaxis, :] - centers32[np.newaxis, :, :]
    squared = np.einsum("nkd,nkd->nk", diff, diff)
    labels = squared.argmin(axis=1)
    distances = np.sqrt(squared[np.arange(len(data32)), labels])
    row_scales = np.asarray(scales, dtype=np.float32)[labels]
    scores = np.zeros(len(distances), dtype=np.float32)
    positive = row_scales > 0
    np.divide(distances, row_scales, out=scores, where=positive)
    scores[~positive & (distances > 0)] = np.inf
    return scores.astype(np.float64)


def fleet_score_batch(
    matrix: np.ndarray,
    mean: np.ndarray,
    components: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    cholesky_factors: np.ndarray,
    *,
    pad_to: Optional[int] = None,
    dtype: str = "float64",
    syscalls: Optional[np.ndarray] = None,
    centers: Optional[np.ndarray] = None,
    scales: Optional[np.ndarray] = None,
    phase_means: Optional[np.ndarray] = None,
    phases: Optional[np.ndarray] = None,
) -> tuple:
    """Fused project → GMM log-density → context score → phase
    residual for one cross-device batch (see the facade docstring).
    Returns ``(log_densities, context_scores, context_residuals)``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    density_fn = (
        _fleet_densities_f32 if dtype == "float32" else _fleet_densities_f64
    )
    densities = density_fn(
        matrix, mean, components, weights, means, cholesky_factors, pad_to
    )
    context_scores = None
    residuals = None
    if centers is not None:
        data = np.atleast_2d(np.asarray(syscalls, dtype=np.float64))
        scores_fn = (
            _context_scores_f32 if dtype == "float32" else _context_scores_f64
        )
        context_scores = scores_fn(data, centers, scales)
        if phase_means is not None and phases is not None:
            phase_rows = np.asarray(phase_means, dtype=np.float64)[
                np.asarray(phases, dtype=np.int64)
            ]
            if dtype == "float32":
                residuals = (
                    data.astype(np.float32) - phase_rows.astype(np.float32)
                ).astype(np.float64)
            else:
                # Elementwise row subtraction: bit-identical to the
                # per-record residual the drift channel historically
                # computed.
                residuals = data - phase_rows
    return densities, context_scores, residuals

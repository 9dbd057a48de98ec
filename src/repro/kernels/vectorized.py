"""Batched NumPy implementations of the hot-path primitives.

This is the production backend: one ``np.bincount`` per trace burst,
one GEMM per MHM batch, and per-component triangular solves that are
batched over all N samples at once (N is the large axis; J ≤ ~10).
The mixture density, the EM E-step and the context score are composed
from these primitives in :mod:`repro.kernels`, once for both backends.

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

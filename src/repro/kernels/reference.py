"""Scalar reference implementations — the differential-test oracle.

Every kernel here walks its input one element at a time in pure
Python, following the paper's formulas directly: the Section 3.1
filter/shift datapath per snooped address, the Eq. 1 projection as an
explicit dot product per (sample, eigenmemory) pair, the Eq. 2 mixture
density as a per-sample, per-component forward substitution with a
scalar log-sum-exp.  Floating-point accumulations use ``math.fsum``
(exactly rounded summation), so the oracle is *more* accurate than a
naive loop — when the vectorized backend disagrees beyond rounding,
the vectorized backend is wrong.

These implementations are intentionally slow (they are what
``repro bench`` reports speedups against) and intentionally obvious.
Keep them free of NumPy vector tricks: their entire value is being an
independent second derivation of each kernel.

The kernels composed from these primitives have no copy here:
``log_density_batch``, ``responsibilities_batch``, ``context_scores``
and the fused ``fleet_score_batch`` (which pads its input into
``pad_to``-row chunks on either backend) are each written once in
:mod:`repro.kernels`.  Under this backend they run on these scalar
primitives, and that run is the oracle for the vectorized one.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


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
        weight_list = [1] * len(addresses)
    else:
        weight_list = [int(w) for w in np.asarray(weights, dtype=np.int64)]
    counts = [0] * num_cells
    accepted = 0
    for address, weight in zip(addresses.tolist(), weight_list):
        offset = address - base_address
        if not 0 <= offset < region_size:
            continue
        counts[offset >> shift] += weight
        accepted += weight
    return np.array(counts, dtype=np.int64), accepted


# ----------------------------------------------------------------------
# Eigenmemory projection
# ----------------------------------------------------------------------
def project_batch(
    matrix: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    mean_list = np.asarray(mean, dtype=np.float64).tolist()
    rows = matrix.tolist()
    basis = np.asarray(components, dtype=np.float64).tolist()
    out = np.empty((len(rows), len(basis)), dtype=np.float64)
    for n, row in enumerate(rows):
        centered = [value - mu for value, mu in zip(row, mean_list)]
        for k, component in enumerate(basis):
            out[n, k] = math.fsum(
                phi * u for phi, u in zip(centered, component)
            )
    return out


def reconstruct_batch(
    weights: np.ndarray, mean: np.ndarray, components: np.ndarray
) -> np.ndarray:
    weight_rows = np.asarray(weights, dtype=np.float64).tolist()
    mean_list = np.asarray(mean, dtype=np.float64).tolist()
    basis = np.asarray(components, dtype=np.float64).tolist()
    num_cells = len(mean_list)
    out = np.empty((len(weight_rows), num_cells), dtype=np.float64)
    for n, row in enumerate(weight_rows):
        for cell in range(num_cells):
            out[n, cell] = mean_list[cell] + math.fsum(
                w * component[cell] for w, component in zip(row, basis)
            )
    return out


# ----------------------------------------------------------------------
# GMM log densities
# ----------------------------------------------------------------------
def _forward_substitution(lower: list, rhs: list) -> list:
    """Solve ``L z = rhs`` for lower-triangular ``L``, one row at a time."""
    dim = len(rhs)
    z = [0.0] * dim
    for row in range(dim):
        partial = math.fsum(lower[row][col] * z[col] for col in range(row))
        z[row] = (rhs[row] - partial) / lower[row][row]
    return z


def component_log_densities(
    data: np.ndarray, means: np.ndarray, cholesky_factors: np.ndarray
) -> np.ndarray:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    num_samples, dim = data.shape
    rows = data.tolist()
    out = np.empty((num_samples, len(means)), dtype=np.float64)
    for j in range(len(means)):
        mean = np.asarray(means[j], dtype=np.float64).tolist()
        lower = np.asarray(cholesky_factors[j], dtype=np.float64).tolist()
        log_det = 2.0 * math.fsum(math.log(lower[d][d]) for d in range(dim))
        for n, row in enumerate(rows):
            centered = [value - mu for value, mu in zip(row, mean)]
            z = _forward_substitution(lower, centered)
            mahalanobis_sq = math.fsum(value * value for value in z)
            out[n, j] = -0.5 * (dim * LOG_2PI + log_det + mahalanobis_sq)
    return out


def nearest_context_batch(
    matrix: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    center_rows = np.asarray(centers, dtype=np.float64).tolist()
    labels = np.empty(len(matrix), dtype=np.int64)
    distances = np.empty(len(matrix), dtype=np.float64)
    for n, row in enumerate(matrix.tolist()):
        best_index = 0
        best_sq = math.inf
        for j, center in enumerate(center_rows):
            squared = math.fsum(
                (value - c) * (value - c) for value, c in zip(row, center)
            )
            # Strict less-than: ties keep the lowest center index, the
            # same first-minimum rule np.argmin applies.
            if squared < best_sq:
                best_sq = squared
                best_index = j
        labels[n] = best_index
        distances[n] = math.sqrt(best_sq)
    return labels, distances


def logsumexp(values: np.ndarray, axis: int = 1) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if axis != 1 or values.ndim != 2:
        # Normalise to rows-along-axis-1 so the scalar loop below covers
        # every layout the pipeline uses.
        moved = np.moveaxis(values, axis, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        result = logsumexp(flat, axis=1)
        return result.reshape(moved.shape[:-1])
    out = np.empty(values.shape[0], dtype=np.float64)
    for n, row in enumerate(values.tolist()):
        peak = max(row)
        if peak == -math.inf:
            out[n] = -math.inf
            continue
        if math.isnan(peak):
            out[n] = math.nan
            continue
        out[n] = peak + math.log(
            math.fsum(math.exp(value - peak) for value in row)
        )
    return out

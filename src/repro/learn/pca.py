"""Eigenmemory: PCA-based dimensionality reduction of heat maps.

Section 4.2 of the paper.  Memory heat maps live in a high-dimensional
space (L = 1,472 cells in the prototype) but their cells are strongly
correlated, so a training set can be compressed onto a small number of
principal components — the *eigenmemories*, by analogy with eigenfaces
[Turk & Pentland 1991].  Each eigenmemory corresponds to a primary
activity of the monitored region, and a reduced MHM is the vector of
weights ``w_i`` with which those activities compose the original map:

    Φ_n = M_n − Ψ ≈ Σ_k w_{n,k} · u_k            (paper Eq. 1 context)

Implementation note: the paper forms the L×L covariance ``C = A·Aᵀ``
(A = [Φ_1 … Φ_N], L×N) and extracts eigenvectors by SVD.  We take the
SVD of ``A`` directly — mathematically identical (the left singular
vectors of A are the eigenvectors of A·Aᵀ, with eigenvalues σ²/N) and
numerically better, and it gets the eigenfaces N ≪ L economy for free.

Projection and reconstruction route through
:mod:`repro.kernels` (``project_batch`` / ``reconstruct_batch``): the
default vectorized backend does each batch in a single GEMM, while
``REPRO_KERNELS=reference`` selects the scalar per-(sample, component)
oracle the differential suite compares against.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .. import kernels
from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries, as_matrix

__all__ = ["Eigenmemory"]

ArrayLike = Union[np.ndarray, HeatMapSeries]


class Eigenmemory:
    """The eigenmemory transform (PCA via SVD).

    Parameters
    ----------
    num_components:
        The number of eigenmemories L′ to keep.  When ``None``, the
        smallest L′ whose retained variance reaches ``variance_target``
        is chosen — the paper keeps 9 components "since they could
        account for more than 99.99 % of the variances" (Section 5.2).
    variance_target:
        Retained-variance goal used when ``num_components`` is None.

    Attributes (after :meth:`fit`)
    ------------------------------
    mean_:
        The empirical mean MHM ``Ψ`` (length L).
    components_:
        Eigenmemories as rows, ``(L′, L)``, orthonormal, ordered by
        decreasing eigenvalue.
    eigenvalues_:
        Variances along each retained eigenmemory (length L′).
    explained_variance_ratio_:
        Per-component fraction of total variance (length L′).
    """

    def __init__(
        self,
        num_components: Optional[int] = None,
        variance_target: float = 0.9999,
    ):
        if num_components is not None and num_components < 1:
            raise ValueError("num_components must be >= 1")
        if not 0.0 < variance_target <= 1.0:
            raise ValueError("variance_target must be in (0, 1]")
        self.num_components = num_components
        self.variance_target = variance_target
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None
        self.eigenvalues_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None
        self._all_eigenvalues: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, data: ArrayLike) -> "Eigenmemory":
        """Learn Ψ and the eigenmemories from a normal training set."""
        matrix = as_matrix(data)
        n_samples, n_cells = matrix.shape
        if n_samples < 2:
            raise ValueError("need at least two training heat maps")

        self.mean_ = matrix.mean(axis=0)
        shifted = matrix - self.mean_

        # SVD of the mean-shifted data: rows of vt are the eigenvectors
        # of the empirical covariance (1/N) Σ Φ_n Φ_nᵀ.
        _, singular_values, vt = np.linalg.svd(shifted, full_matrices=False)
        eigenvalues = (singular_values**2) / n_samples
        total = eigenvalues.sum()
        if total <= 0:
            raise ValueError("training set has zero variance")
        ratios = eigenvalues / total
        self._all_eigenvalues = eigenvalues

        if self.num_components is not None:
            rank = min(self.num_components, len(eigenvalues))
        else:
            cumulative = np.cumsum(ratios)
            rank = int(np.searchsorted(cumulative, self.variance_target) + 1)
            rank = min(rank, len(eigenvalues))

        self.components_ = vt[:rank]
        self.eigenvalues_ = eigenvalues[:rank]
        self.explained_variance_ratio_ = ratios[:rank]
        return self

    @property
    def is_fitted(self) -> bool:
        return self.components_ is not None

    @property
    def num_components_(self) -> int:
        """The retained L′ (after fitting)."""
        self._require_fitted()
        return len(self.components_)

    @property
    def retained_variance_(self) -> float:
        self._require_fitted()
        return float(self.explained_variance_ratio_.sum())

    def components_for_variance(self, target: float) -> int:
        """Smallest L′ retaining ``target`` variance (uses all spectra)."""
        self._require_fitted()
        if not 0.0 < target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        ratios = self._all_eigenvalues / self._all_eigenvalues.sum()
        return int(np.searchsorted(np.cumsum(ratios), target) + 1)

    # ------------------------------------------------------------------
    # Transformation (paper Eq. 1)
    # ------------------------------------------------------------------
    def transform(self, data: ArrayLike) -> np.ndarray:
        """Project MHMs onto the eigenmemory space: ``M′ = uᵀ(M − Ψ)``."""
        self._require_fitted()
        matrix = as_matrix(data)
        if matrix.shape[1] != len(self.mean_):
            raise ValueError(
                f"expected {len(self.mean_)} cells, got {matrix.shape[1]}"
            )
        return kernels.project_batch(matrix, self.mean_, self.components_)

    def transform_one(self, heat_map: MemoryHeatMap) -> np.ndarray:
        """Project a single heat map; returns the weight vector (L′,)."""
        return self.transform(heat_map.as_vector()[np.newaxis, :])[0]

    def inverse_transform(self, weights: np.ndarray) -> np.ndarray:
        """Reconstruct MHMs from weights: ``M ≈ Ψ + Σ w_k u_k``."""
        self._require_fitted()
        weights = np.asarray(weights, dtype=np.float64)
        single = weights.ndim == 1
        if single:
            weights = weights[np.newaxis, :]
        if weights.shape[1] != self.num_components_:
            raise ValueError(
                f"expected {self.num_components_} weights, got {weights.shape[1]}"
            )
        result = kernels.reconstruct_batch(weights, self.mean_, self.components_)
        return result[0] if single else result

    def reconstruction_error(self, data: ArrayLike) -> np.ndarray:
        """Per-sample RMS error of the rank-L′ approximation."""
        matrix = as_matrix(data)
        reconstructed = self.inverse_transform(self.transform(matrix))
        return np.sqrt(np.mean((matrix - reconstructed) ** 2, axis=1))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        self._require_fitted()
        return {
            "mean": self.mean_,
            "components": self.components_,
            "eigenvalues": self.eigenvalues_,
            "explained_variance_ratio": self.explained_variance_ratio_,
            "all_eigenvalues": self._all_eigenvalues,
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "Eigenmemory":
        model = cls(num_components=len(arrays["components"]))
        model.mean_ = np.asarray(arrays["mean"], dtype=np.float64)
        model.components_ = np.asarray(arrays["components"], dtype=np.float64)
        model.eigenvalues_ = np.asarray(arrays["eigenvalues"], dtype=np.float64)
        model.explained_variance_ratio_ = np.asarray(
            arrays["explained_variance_ratio"], dtype=np.float64
        )
        model._all_eigenvalues = np.asarray(
            arrays["all_eigenvalues"], dtype=np.float64
        )
        return model

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("Eigenmemory has not been fitted")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.is_fitted:
            return "Eigenmemory(unfitted)"
        return (
            f"Eigenmemory(L'={self.num_components_}, "
            f"variance={self.retained_variance_:.6f})"
        )

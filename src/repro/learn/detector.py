"""The end-to-end MHM anomaly detector.

This is the paper's full pipeline (Sections 4 and 5.2) in one object:

1. **Eigenmemory** — PCA keeps the L′ components explaining ≥ 99.99 %
   of training variance (9 in the paper's setup);
2. **GMM** — a J = 5 mixture fitted by 10-restart EM over the reduced
   training set;
3. **θ calibration** — thresholds set to p-quantiles of the densities
   of a *held-out* normal set, so the expected FPR is p.

At run time the secure core mean-shifts the incoming MHM, projects it
with the stored eigenmemories (Eq. 1), evaluates the mixture density
(Eq. 2) and compares against θ_p.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries, as_matrix
from ..kernels.blas_threads import one_blas_thread
from ..obs import span
from .gmm import GaussianMixtureModel
from .pca import Eigenmemory
from .threshold import DEFAULT_QUANTILES, ThresholdBank

__all__ = ["MhmDetector"]

LN10 = float(np.log(10.0))

MapsLike = Union[HeatMapSeries, np.ndarray]


class MhmDetector:
    """Eigenmemory + GMM anomaly detector over memory heat maps.

    Parameters
    ----------
    num_eigenmemories:
        L′.  ``None`` (default) selects the smallest L′ reaching
        ``variance_target``, reproducing the paper's selection rule.
    variance_target:
        Retained-variance goal for automatic L′ selection (paper:
        "more than 99.99 % of the variances").
    num_gaussians:
        J, the number of GMM components (paper: 5).
    em_restarts:
        EM restarts, best log-likelihood wins (paper: 10).
    quantiles:
        The θ_p values (percent) to calibrate (paper: 0.5 and 1).
    covariance_ridge:
        GMM covariance regulariser (see
        :class:`~repro.learn.gmm.GaussianMixtureModel`).
    seed:
        Seeds k-means/EM initialisation.

    Examples
    --------
    >>> detector = MhmDetector(seed=1).fit(training, validation)
    >>> log10_density = detector.log10_density(test_map)
    >>> detector.is_anomalous(test_map, p_percent=1.0)
    """

    def __init__(
        self,
        num_eigenmemories: Optional[int] = None,
        variance_target: float = 0.9999,
        num_gaussians: int = 5,
        em_restarts: int = 10,
        quantiles=DEFAULT_QUANTILES,
        covariance_ridge: float = 1e-4,
        seed: int = 0,
    ):
        self.eigenmemory = Eigenmemory(
            num_components=num_eigenmemories, variance_target=variance_target
        )
        self.num_gaussians = num_gaussians
        self.em_restarts = em_restarts
        self.quantiles = tuple(float(q) for q in quantiles)
        self.covariance_ridge = covariance_ridge
        self.seed = seed
        self.gmm: Optional[GaussianMixtureModel] = None
        self.thresholds: Optional[ThresholdBank] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @one_blas_thread()
    def fit(
        self, training: MapsLike, validation: Optional[MapsLike] = None
    ) -> "MhmDetector":
        """Learn eigenmemories, mixture and thresholds.

        Parameters
        ----------
        training:
            Normal MHMs for the eigenmemory transform and the GMM.
        validation:
            A *separate* set of normal MHMs for θ calibration (the
            paper collects one).  When omitted, thresholds are
            calibrated on the training densities — cheaper, slightly
            optimistic.
        """
        train_matrix = as_matrix(training)
        with span("fit.pca"):
            self.eigenmemory.fit(train_matrix)
            reduced = self.eigenmemory.transform(train_matrix)

        with span("fit.gmm"):
            self.gmm = GaussianMixtureModel(
                num_components=self.num_gaussians,
                num_restarts=self.em_restarts,
                covariance_ridge=self.covariance_ridge,
                seed=self.seed,
            ).fit(reduced)

        with span("fit.thresholds"):
            if validation is not None:
                calibration = self.eigenmemory.transform(as_matrix(validation))
            else:
                calibration = reduced
            self.thresholds = ThresholdBank.calibrate(
                self.gmm.score_samples(calibration), self.quantiles
            )
        return self

    @property
    def is_fitted(self) -> bool:
        return self.gmm is not None and self.thresholds is not None

    @property
    def num_eigenmemories_(self) -> int:
        return self.eigenmemory.num_components_

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _reduce(self, heat_map: Union[MemoryHeatMap, np.ndarray]) -> np.ndarray:
        if isinstance(heat_map, MemoryHeatMap):
            vector = heat_map.as_vector()
        else:
            vector = np.asarray(heat_map, dtype=np.float64)
        return self.eigenmemory.transform(vector[np.newaxis, :])

    def log_density(self, heat_map: Union[MemoryHeatMap, np.ndarray]) -> float:
        """Natural-log mixture density ``ln Pr(M)`` of one MHM."""
        self._require_fitted()
        return float(self.gmm.score_samples(self._reduce(heat_map))[0])

    def log10_density(self, heat_map: Union[MemoryHeatMap, np.ndarray]) -> float:
        """``log10 Pr(M)`` — the y-axis of Figures 7, 8 and 10."""
        return self.log_density(heat_map) / LN10

    def score_series(self, series: MapsLike) -> np.ndarray:
        """Natural-log densities for every MHM of a series."""
        self._require_fitted()
        reduced = self.eigenmemory.transform(as_matrix(series))
        return self.gmm.score_samples(reduced)

    def log10_series(self, series: MapsLike) -> np.ndarray:
        return self.score_series(series) / LN10

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def threshold(self, p_percent: float) -> float:
        """θ_p in natural-log space."""
        self._require_fitted()
        return self.thresholds.threshold(p_percent)

    def log10_threshold(self, p_percent: float) -> float:
        return self.threshold(p_percent) / LN10

    def is_anomalous(
        self, heat_map: Union[MemoryHeatMap, np.ndarray], p_percent: float = 1.0
    ) -> bool:
        """The legitimacy test: density below θ_p ⇒ anomalous."""
        return self.log_density(heat_map) < self.threshold(p_percent)

    def classify_series(self, series: MapsLike, p_percent: float = 1.0) -> np.ndarray:
        """Boolean anomaly flags for every MHM of a series."""
        return self.thresholds.flag_series(self.score_series(series), p_percent)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """The complete fitted state as a flat ``name -> ndarray`` dict.

        This is the canonical fit-result serialisation: :meth:`save`
        writes exactly these arrays to an ``.npz`` archive, and the
        pipeline's artifact cache stores them as a cache entry.
        """
        self._require_fitted()
        pca = self.eigenmemory.to_arrays()
        gmm = self.gmm.to_arrays()
        quantile_keys = np.array(self.thresholds.quantiles, dtype=np.float64)
        quantile_values = np.array(
            [self.thresholds.threshold(q) for q in quantile_keys], dtype=np.float64
        )
        return {
            "pca_mean": pca["mean"],
            "pca_components": pca["components"],
            "pca_eigenvalues": pca["eigenvalues"],
            "pca_ratio": pca["explained_variance_ratio"],
            "pca_all_eigenvalues": pca["all_eigenvalues"],
            "gmm_weights": gmm["weights"],
            "gmm_means": gmm["means"],
            "gmm_covariances": gmm["covariances"],
            "quantile_keys": quantile_keys,
            "quantile_values": quantile_values,
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "MhmDetector":
        """Rebuild a fitted detector from :meth:`to_arrays` output."""
        detector = cls(
            num_eigenmemories=len(arrays["pca_components"]),
            num_gaussians=len(arrays["gmm_weights"]),
        )
        detector.eigenmemory = Eigenmemory.from_arrays(
            {
                "mean": arrays["pca_mean"],
                "components": arrays["pca_components"],
                "eigenvalues": arrays["pca_eigenvalues"],
                "explained_variance_ratio": arrays["pca_ratio"],
                "all_eigenvalues": arrays["pca_all_eigenvalues"],
            }
        )
        detector.gmm = GaussianMixtureModel.from_arrays(
            {
                "weights": arrays["gmm_weights"],
                "means": arrays["gmm_means"],
                "covariances": arrays["gmm_covariances"],
            }
        )
        detector.thresholds = ThresholdBank(
            thresholds={
                float(k): float(v)
                for k, v in zip(arrays["quantile_keys"], arrays["quantile_values"])
            }
        )
        detector.quantiles = tuple(detector.thresholds.quantiles)
        return detector

    def save(self, path) -> None:
        """Serialise the fitted detector to an ``.npz`` archive."""
        np.savez_compressed(path, **self.to_arrays())

    @classmethod
    def load(cls, path) -> "MhmDetector":
        with np.load(path) as data:
            return cls.from_arrays({name: data[name] for name in data.files})

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("MhmDetector has not been fitted")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.is_fitted:
            return "MhmDetector(unfitted)"
        return (
            f"MhmDetector(L'={self.num_eigenmemories_}, "
            f"J={self.num_gaussians}, thresholds={self.thresholds.quantiles})"
        )

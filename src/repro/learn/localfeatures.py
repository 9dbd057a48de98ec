"""Unsupervised local-feature representation of heat maps.

Section 5.5 of the paper: systems with "highly unpredictable, but yet
legitimate, memory usage" defeat the global eigenmemory+GMM model, and
the authors "plan to build a robust classification algorithm by
extracting local features from MHMs in an unsupervised manner as in
Deep Learning".  No deep-learning stack is available here, so this
module implements the closest classical equivalent — a bag-of-patches
pipeline, the standard pre-DL local-feature recipe from image
recognition:

1. slide a window over the MHM vector to extract overlapping
   **patches** (local activity snippets);
2. normalise each patch (so the *shape* of local activity matters, not
   its absolute height — this is what buys robustness to legitimate
   global volume variation);
3. learn a **codebook** of prototypical patches with k-means
   (unsupervised);
4. represent an MHM as the **histogram** of its patches' nearest
   codewords;
5. model normal histograms with the same GMM machinery and threshold
   rule as the global detector.

Because the histogram discards *where* activity moved but keeps *what
kinds* of local activity occurred, this detector tolerates benign
global shifts that trip the eigenmemory detector, at the cost of some
sensitivity to purely-compositional anomalies.  The trade-off is
benched in `benchmarks/test_ablation_localfeatures.py`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.mhm import MemoryHeatMap
from ..core.series import HeatMapSeries, as_matrix
from .gmm import GaussianMixtureModel
from .kmeans import kmeans
from .threshold import DEFAULT_QUANTILES, ThresholdBank

__all__ = ["PatchExtractor", "PatchCodebook", "LocalFeatureDetector"]

MapsLike = Union[HeatMapSeries, np.ndarray]


class PatchExtractor:
    """Sliding-window patch extraction with per-patch normalisation.

    Parameters
    ----------
    patch_cells:
        Window length in cells.
    stride:
        Window step in cells.
    min_energy:
        Patches whose total count is below this are dropped (empty
        regions of the map carry no local structure).
    """

    def __init__(self, patch_cells: int = 16, stride: int = 8, min_energy: float = 1.0):
        if patch_cells < 2:
            raise ValueError("patch_cells must be >= 2")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.patch_cells = patch_cells
        self.stride = stride
        self.min_energy = min_energy

    def patches(self, vector: np.ndarray) -> np.ndarray:
        """Normalised patches of one MHM vector, shape (P, patch_cells)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError("expected a 1-D MHM vector")
        if len(vector) < self.patch_cells:
            raise ValueError("MHM shorter than one patch")
        starts = np.arange(0, len(vector) - self.patch_cells + 1, self.stride)
        windows = np.stack([vector[s : s + self.patch_cells] for s in starts])
        energy = windows.sum(axis=1)
        windows = windows[energy >= self.min_energy]
        if not len(windows):
            return np.empty((0, self.patch_cells))
        # L2-normalise: local *shape*, not local volume.
        norms = np.linalg.norm(windows, axis=1, keepdims=True)
        return windows / norms


class PatchCodebook:
    """A k-means codebook of prototypical local activity patterns."""

    def __init__(self, num_codewords: int = 32, seed: int = 0):
        if num_codewords < 2:
            raise ValueError("num_codewords must be >= 2")
        self.num_codewords = num_codewords
        self.seed = seed
        self.codewords_: Optional[np.ndarray] = None

    def fit(self, patches: np.ndarray) -> "PatchCodebook":
        if len(patches) < self.num_codewords:
            raise ValueError(
                f"need at least {self.num_codewords} patches, got {len(patches)}"
            )
        rng = np.random.default_rng(self.seed)
        result = kmeans(patches, self.num_codewords, rng)
        self.codewords_ = result.centers
        return self

    def assign(self, patches: np.ndarray) -> np.ndarray:
        """Nearest-codeword index for each patch."""
        if self.codewords_ is None:
            raise RuntimeError("PatchCodebook has not been fitted")
        if len(patches) == 0:
            return np.empty(0, dtype=np.int64)
        distances = (
            np.einsum("pd,pd->p", patches, patches)[:, np.newaxis]
            - 2.0 * patches @ self.codewords_.T
            + np.einsum("kd,kd->k", self.codewords_, self.codewords_)[np.newaxis, :]
        )
        return distances.argmin(axis=1)

    def histogram(self, patches: np.ndarray) -> np.ndarray:
        """Normalised codeword histogram (the bag-of-patches vector)."""
        counts = np.bincount(
            self.assign(patches), minlength=self.num_codewords
        ).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts


class LocalFeatureDetector:
    """Bag-of-patches anomaly detector over heat maps.

    Drop-in alternative to :class:`~repro.learn.detector.MhmDetector`
    with the same ``fit`` / ``log_density`` / ``is_anomalous`` surface.
    """

    def __init__(
        self,
        patch_cells: int = 16,
        stride: int = 8,
        num_codewords: int = 32,
        num_gaussians: int = 5,
        em_restarts: int = 5,
        min_patch_energy: float = 1.0,
        quantiles=DEFAULT_QUANTILES,
        seed: int = 0,
    ):
        self.extractor = PatchExtractor(
            patch_cells=patch_cells, stride=stride, min_energy=min_patch_energy
        )
        self.codebook = PatchCodebook(num_codewords=num_codewords, seed=seed)
        self.num_gaussians = num_gaussians
        self.em_restarts = em_restarts
        self.quantiles = tuple(float(q) for q in quantiles)
        self.seed = seed
        self.gmm: Optional[GaussianMixtureModel] = None
        self.thresholds: Optional[ThresholdBank] = None

    # ------------------------------------------------------------------
    def _histograms(self, matrix: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.codebook.histogram(self.extractor.patches(row)) for row in matrix]
        )

    def fit(
        self, training: MapsLike, validation: Optional[MapsLike] = None
    ) -> "LocalFeatureDetector":
        matrix = as_matrix(training)
        all_patches = np.concatenate(
            [self.extractor.patches(row) for row in matrix]
        )
        self.codebook.fit(all_patches)
        histograms = self._histograms(matrix)
        self.gmm = GaussianMixtureModel(
            num_components=self.num_gaussians,
            num_restarts=self.em_restarts,
            seed=self.seed,
        ).fit(histograms)
        calibration = (
            self._histograms(as_matrix(validation))
            if validation is not None
            else histograms
        )
        self.thresholds = ThresholdBank.calibrate(
            self.gmm.score_samples(calibration), self.quantiles
        )
        return self

    @property
    def is_fitted(self) -> bool:
        return self.gmm is not None

    # ------------------------------------------------------------------
    def log_density(self, heat_map: Union[MemoryHeatMap, np.ndarray]) -> float:
        self._require_fitted()
        vector = (
            heat_map.as_vector()
            if isinstance(heat_map, MemoryHeatMap)
            else np.asarray(heat_map, dtype=np.float64)
        )
        histogram = self.codebook.histogram(self.extractor.patches(vector))
        return float(self.gmm.score_samples(histogram[np.newaxis, :])[0])

    def score_series(self, series: MapsLike) -> np.ndarray:
        self._require_fitted()
        return self.gmm.score_samples(self._histograms(as_matrix(series)))

    def threshold(self, p_percent: float) -> float:
        self._require_fitted()
        return self.thresholds.threshold(p_percent)

    def is_anomalous(
        self, heat_map: Union[MemoryHeatMap, np.ndarray], p_percent: float = 1.0
    ) -> bool:
        return self.log_density(heat_map) < self.threshold(p_percent)

    def classify_series(self, series: MapsLike, p_percent: float = 1.0) -> np.ndarray:
        return self.thresholds.flag_series(self.score_series(series), p_percent)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("LocalFeatureDetector has not been fitted")

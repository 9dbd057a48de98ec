"""Figueiredo–Jain unsupervised mixture learning (paper footnote 1).

The paper fixes J = 5 "arbitrarily" and notes that Figueiredo & Jain
[PAMI 2002] provide a method to choose the number of components
automatically.  This module implements that extension: component-wise
EM with a minimum-message-length (MML) prior that drives superfluous
components' weights to zero, annihilates them, and keeps the model with
the best message length over the sweep from ``max_components`` down to
``min_components``.

The E-step evaluates the mixture through
``kernels.responsibilities_batch``, the same dispatching kernel as
:class:`~repro.learn.gmm.GaussianMixtureModel`'s EM, so
``REPRO_KERNELS=reference`` runs the whole fit on the scalar oracle.
The M-step is :func:`~repro.learn.gmm.m_step` and the seed covariance
:func:`~repro.learn.gmm.global_covariance`, both shared with that EM.
Here the ridge is ``covariance_ridge·trace/D`` (1e-6 by default) at
the seed and at every M-step, and each component's mass is its bare
responsibility total; :mod:`repro.learn.gmm` lists every ridge scale.

Used by the ablation benchmark A4 to check how the automatic J compares
with the paper's hand-picked 5 on MHM training data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import kernels
from .gmm import GaussianMixtureModel, global_covariance, m_step, regularized_cholesky
from .kmeans import kmeans

__all__ = ["FigueiredoJainGmm"]


class FigueiredoJainGmm:
    """GMM with automatic component-count selection via MML.

    Parameters
    ----------
    max_components:
        Initial (over-provisioned) J.
    min_components:
        Smallest J to consider.
    max_iterations, tolerance:
        Stopping rule of the inner EM sweeps.
    covariance_ridge:
        Relative ridge on component covariances.
    seed:
        Initialisation seed.

    After :meth:`fit`, :attr:`model_` holds the winning
    :class:`~repro.learn.gmm.GaussianMixtureModel` and
    :attr:`num_components_` its J.
    """

    def __init__(
        self,
        max_components: int = 12,
        min_components: int = 1,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
        covariance_ridge: float = 1e-6,
        seed: int = 0,
    ):
        if not 1 <= min_components <= max_components:
            raise ValueError("need 1 <= min_components <= max_components")
        self.max_components = max_components
        self.min_components = min_components
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.covariance_ridge = covariance_ridge
        self.seed = seed
        self.model_: Optional[GaussianMixtureModel] = None
        self.num_components_: Optional[int] = None
        self.message_length_: float = np.inf
        self.history_: list[tuple[int, float]] = []  # (J, message length)

    # ------------------------------------------------------------------
    def fit(self, data: np.ndarray) -> "FigueiredoJainGmm":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be an (N, D) matrix")
        n_samples, dim = data.shape
        start_j = min(self.max_components, n_samples)
        rng = np.random.default_rng(self.seed)

        # Over-provisioned k-means start.
        km = kmeans(data, start_j, rng)
        means = km.centers.copy()
        global_cov, scale = global_covariance(data)
        ridge = self.covariance_ridge * scale
        covariances = np.array(
            [global_cov + ridge * np.eye(dim) for _ in range(start_j)]
        )
        weights = np.full(start_j, 1.0 / start_j)

        #: free parameters per component: mean + symmetric covariance
        params_per_component = dim + dim * (dim + 1) / 2.0

        best: Optional[dict] = None
        best_length = np.inf

        while len(weights) >= self.min_components:
            weights, means, covariances, log_likelihood = self._cem_sweep(
                data, weights, means, covariances, ridge, params_per_component
            )
            j = len(weights)
            if j == 0:
                break
            length = self._message_length(
                log_likelihood, weights, n_samples, params_per_component
            )
            self.history_.append((j, length))
            if length < best_length:
                best_length = length
                best = {"weights": weights, "means": means, "covariances": covariances}
            if j <= self.min_components:
                break
            # Forced annihilation: kill the weakest component and resweep.
            drop = int(np.argmin(weights))
            weights = np.delete(weights, drop)
            means = np.delete(means, drop, axis=0)
            covariances = np.delete(covariances, drop, axis=0)
            weights = weights / weights.sum()

        if best is None:
            raise RuntimeError("Figueiredo-Jain failed to retain any component")

        model = GaussianMixtureModel.from_arrays(best, seed=self.seed)
        model.training_log_likelihood_ = float(
            model.score_samples(data).sum()
        )
        self.model_ = model
        self.num_components_ = model.num_components
        self.message_length_ = best_length
        return self

    # ------------------------------------------------------------------
    def _cem_sweep(self, data, weights, means, covariances, ridge, nppc):
        """Component-wise EM with MML weight shrinkage and annihilation."""
        n_samples = len(data)
        previous_ll = -np.inf
        log_likelihood = -np.inf
        for _ in range(self.max_iterations):
            j = len(weights)
            if j == 0:
                return weights, means, covariances, -np.inf
            factors = [regularized_cholesky(c) for c in covariances]
            log_norm, responsibilities = kernels.responsibilities_batch(
                data, weights, means, np.array(factors)
            )
            log_likelihood = float(log_norm.sum())

            mass = responsibilities.sum(axis=0)
            # MML shrinkage (Figueiredo-Jain Eq. 17): subtract half the
            # per-component parameter count from each component's mass.
            shrunk = np.maximum(0.0, mass - nppc / 2.0)
            if shrunk.sum() <= 0:
                # Everything annihilated: keep the heaviest component.
                keep = int(np.argmax(mass))
                weights = np.ones(1)
                means = means[keep : keep + 1]
                covariances = covariances[keep : keep + 1]
                continue
            new_weights = shrunk / shrunk.sum()

            survivors = new_weights > 0
            if not survivors.all():
                weights = new_weights[survivors]
                weights = weights / weights.sum()
                means = means[survivors]
                covariances = covariances[survivors]
                previous_ll = -np.inf  # model changed; reset convergence
                continue

            weights = new_weights
            means, covariances = m_step(data, responsibilities, mass, ridge)

            if abs(log_likelihood - previous_ll) < self.tolerance * n_samples:
                break
            previous_ll = log_likelihood
        return weights, means, covariances, log_likelihood

    @staticmethod
    def _message_length(log_likelihood, weights, n_samples, nppc):
        """The MML criterion (Figueiredo-Jain Eq. 15, constants dropped)."""
        j = len(weights)
        positive = weights[weights > 0]
        return float(
            nppc / 2.0 * np.sum(np.log(n_samples * positive / 12.0))
            + j / 2.0 * np.log(n_samples / 12.0)
            + j * (nppc + 1) / 2.0
            - log_likelihood
        )

    def score_samples(self, data: np.ndarray) -> np.ndarray:
        if self.model_ is None:
            raise RuntimeError("FigueiredoJainGmm has not been fitted")
        return self.model_.score_samples(data)

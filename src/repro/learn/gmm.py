"""Gaussian Mixture Model fitted with Expectation-Maximisation.

Section 4.3 of the paper: normal (reduced) MHMs are modelled as draws
from a J-component Gaussian mixture — each component a basis pattern of
the system's deterministic behaviour — and a test MHM is anomalous when
its mixture density falls below a calibrated threshold.

Following the paper's training protocol (Section 5.2):

* the number of components J is given by the caller (the paper uses
  J = 5, "arbitrarily chosen"; see :mod:`repro.learn.fj` for the
  Figueiredo–Jain automatic alternative the paper cites);
* EM is restarted several times (the paper: 10) and the run with the
  highest training log-likelihood wins — EM only finds local optima;
* each restart is seeded from a k-means solution.

All density work is done in log space with the log-sum-exp trick, and
component covariances carry a ridge regulariser so the tight clusters
of a predictable real-time workload cannot collapse EM.

Both fitters here (this module's EM and the Figueiredo–Jain fitter of
:mod:`repro.learn.fj`) share one M-step, :func:`m_step`, and seed their
covariances from one :func:`global_covariance`.  Each caller picks its
own ridge, so the four ridge scales read at their call sites:

* GMM seed (``_initial_parameters``): ``covariance_ridge·trace/D``,
  1e-4 by default, with ``trace/D`` from :func:`global_covariance`;
* GMM M-step (``_run_em``): ``covariance_ridge·var(data)``, the
  variance of the flattened data matrix;
* Figueiredo–Jain seed and M-step: ``1e-6·trace/D`` by default;
* scoring: :class:`GmmParameters` factors every covariance through
  :func:`regularized_cholesky`, which always adds
  ``1e-6·max(1, trace(Σ_j)/D)``.  The densities are therefore scored
  on Σ_j plus a ridge that the stored ``covariances`` do not carry.

Every mixture density in :mod:`repro.learn` routes through
:mod:`repro.kernels` (``log_density_batch`` /
``responsibilities_batch``): this module's E-step, the
Figueiredo–Jain E-step (:mod:`repro.learn.fj`), threshold calibration
and detector scoring all share one batched scoring kernel, and
``REPRO_KERNELS=reference`` swaps in the scalar oracle the
differential suite compares against.  Components are passed as their
Cholesky factors (:func:`regularized_cholesky`).  Collapsed mixture
components (zero weight) score as exactly ``-inf`` without tripping
the divide-by-zero warning that ``make test-fast`` escalates.

Note on the paper's Eq. (2): as printed it omits the inverse on Σ and
the reciprocal on the normaliser; the kernels implement the standard
multivariate normal density

    f(x | μ, Σ) = (2π)^{-L/2} |Σ|^{-1/2} exp(-½ (x-μ)ᵀ Σ⁻¹ (x-μ)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import kernels, obs
from .kmeans import kmeans

__all__ = [
    "GmmParameters",
    "GaussianMixtureModel",
    "global_covariance",
    "m_step",
    "regularized_cholesky",
]


def regularized_cholesky(covariance: np.ndarray, ridge: float = 1e-6) -> np.ndarray:
    """Lower Cholesky factor of ``covariance + ridge·I``.

    If the factorisation still fails (badly conditioned input), the
    ridge is escalated by powers of ten up to a relative cap before
    giving up.
    """
    covariance = np.asarray(covariance, dtype=np.float64)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise ValueError("covariance must be a square matrix")
    dim = covariance.shape[0]
    scale = max(1.0, float(np.trace(covariance)) / dim)
    attempt = ridge * scale
    for _ in range(12):
        try:
            return np.linalg.cholesky(covariance + attempt * np.eye(dim))
        except np.linalg.LinAlgError:
            attempt *= 10.0
    raise np.linalg.LinAlgError(
        "covariance matrix is not positive definite even after regularisation"
    )


def global_covariance(data: np.ndarray) -> tuple[np.ndarray, float]:
    """The (D, D) covariance of all of ``data`` and its scale.

    The scale is ``trace/D`` floored at 1e-12.  Figueiredo–Jain seeds
    every component with this covariance, EM each component with too
    few members, and both scale their seed ridge by it.
    """
    dim = data.shape[1]
    covariance = np.cov(data, rowvar=False).reshape(dim, dim)
    return covariance, max(float(np.trace(covariance)) / dim, 1e-12)


def m_step(
    data: np.ndarray, responsibilities: np.ndarray, mass: np.ndarray, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted means and ``ridge``-loaded covariances of every component.

    ``mass`` is each component's responsibility total, the divisor of
    its mean and covariance.  The caller passes it because the fitters
    guard it differently (EM adds 1e-12, Figueiredo–Jain does not).
    """
    dim = data.shape[1]
    means = (responsibilities.T @ data) / mass[:, np.newaxis]
    covariances = np.empty((len(mass), dim, dim))
    for j in range(len(mass)):
        centered = data - means[j]
        weighted = centered * responsibilities[:, j : j + 1]
        covariances[j] = (weighted.T @ centered) / mass[j]
        covariances[j] += ridge * np.eye(dim)
    return means, covariances


@dataclass
class GmmParameters:
    """The fitted mixture: λ_j, μ_j, Σ_j for j = 1..J (paper Eq. 2)."""

    weights: np.ndarray  # (J,)  mixing parameters λ_j
    means: np.ndarray  # (J, D) component means μ_j
    covariances: np.ndarray  # (J, D, D) component covariances Σ_j
    cholesky_factors: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        j = len(self.weights)
        if self.means.shape[0] != j or self.covariances.shape[0] != j:
            raise ValueError("component counts disagree across parameters")
        if not np.isclose(self.weights.sum(), 1.0, atol=1e-6):
            raise ValueError("mixing weights must sum to 1")
        if (self.weights < 0).any():
            raise ValueError("mixing weights must be non-negative")
        if self.cholesky_factors is None:
            self.cholesky_factors = np.stack(
                [regularized_cholesky(c) for c in self.covariances]
            )

    @property
    def num_components(self) -> int:
        return len(self.weights)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


class GaussianMixtureModel:
    """A J-component GMM with full covariances, trained by EM.

    Parameters
    ----------
    num_components:
        J, the number of Gaussian densities (paper: 5).
    num_restarts:
        Independent EM runs; the best training log-likelihood wins
        (paper: 10).
    max_iterations, tolerance:
        EM stopping rule: stop when the mean log-likelihood improves by
        less than ``tolerance`` between iterations.
    covariance_ridge:
        Relative ridge added to each component covariance at every
        M-step (scaled by the data variance).  The default 1e-4 keeps
        the density scale sane on the near-deterministic clusters that
        predictable real-time workloads produce; EM with an unridged
        covariance drives component determinants toward zero and the
        log densities toward ±thousands.
    seed:
        Seed for k-means initialisation and restart variation.
    """

    def __init__(
        self,
        num_components: int = 5,
        num_restarts: int = 10,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        covariance_ridge: float = 1e-4,
        seed: int = 0,
    ):
        if num_components < 1:
            raise ValueError("num_components must be >= 1")
        if num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")
        self.num_components = num_components
        self.num_restarts = num_restarts
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.covariance_ridge = covariance_ridge
        self.seed = seed
        self.parameters: Optional[GmmParameters] = None
        self.converged_: bool = False
        self.training_log_likelihood_: float = -np.inf
        self.iterations_: int = 0
        #: Per-iteration mean log-likelihood of the winning restart.
        self.log_likelihood_trajectory_: list[float] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, data: np.ndarray) -> "GaussianMixtureModel":
        """Fit by multi-restart EM; keeps the best restart."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be an (N, D) matrix")
        n_samples = len(data)
        if n_samples < self.num_components:
            raise ValueError(
                f"need at least {self.num_components} samples, got {n_samples}"
            )

        rng = np.random.default_rng(self.seed)
        registry = obs.metrics()
        iterations_histogram = registry.histogram(
            "gmm.em.iterations_per_restart",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        )
        best: Optional[tuple[float, GmmParameters, bool, int, list]] = None
        for _ in range(self.num_restarts):
            params, log_likelihood, converged, iterations, trajectory = self._run_em(
                data, rng
            )
            registry.counter("gmm.em.restarts").inc()
            registry.counter("gmm.em.iterations").inc(iterations)
            iterations_histogram.observe(iterations)
            if best is None or log_likelihood > best[0]:
                best = (log_likelihood, params, converged, iterations, trajectory)

        assert best is not None
        (
            self.training_log_likelihood_,
            self.parameters,
            self.converged_,
            self.iterations_,
            self.log_likelihood_trajectory_,
        ) = best
        registry.gauge("gmm.em.best_log_likelihood").set(
            self.training_log_likelihood_
        )
        return self

    def _initial_parameters(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> GmmParameters:
        """Seed from k-means: cluster means, within-cluster covariances."""
        result = kmeans(data, self.num_components, rng)
        dim = data.shape[1]
        global_cov, scale = global_covariance(data)
        weights = np.empty(self.num_components)
        covariances = np.empty((self.num_components, dim, dim))
        for j in range(self.num_components):
            members = data[result.labels == j]
            weights[j] = max(len(members), 1)
            if len(members) > dim:
                covariances[j] = np.cov(members, rowvar=False).reshape(dim, dim)
            else:
                covariances[j] = global_cov.copy()
            covariances[j] += self.covariance_ridge * scale * np.eye(dim)
        weights /= weights.sum()
        return GmmParameters(
            weights=weights, means=result.centers, covariances=covariances
        )

    def _run_em(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> tuple[GmmParameters, float, bool, int, list]:
        params = self._initial_parameters(data, rng)
        n_samples = len(data)
        # The M-step ridge scales by the flattened data's variance, not
        # by the trace/D of global_covariance that both seeds use.
        scale = max(float(np.var(data)), 1e-12)
        ridge = self.covariance_ridge * scale

        previous_mean_ll = -np.inf
        converged = False
        iteration = 0
        trajectory: list[float] = []
        for iteration in range(1, self.max_iterations + 1):
            # E-step: responsibilities in log space (batched kernel).
            log_norm, responsibilities = kernels.responsibilities_batch(
                data, params.weights, params.means, params.cholesky_factors
            )

            mean_ll = float(log_norm.mean())
            trajectory.append(mean_ll)
            if mean_ll - previous_mean_ll < self.tolerance and iteration > 1:
                converged = True
                break
            previous_mean_ll = mean_ll

            # M-step.
            component_mass = responsibilities.sum(axis=0) + 1e-12
            weights = component_mass / n_samples
            means, covariances = m_step(data, responsibilities, component_mass, ridge)
            weights = weights / weights.sum()
            params = GmmParameters(
                weights=weights, means=means, covariances=covariances
            )

        final_ll = float(
            kernels.log_density_batch(
                data, params.weights, params.means, params.cholesky_factors
            ).sum()
        )
        return params, final_ll, converged, iteration, trajectory

    # ------------------------------------------------------------------
    # Scoring (paper Eq. 2)
    # ------------------------------------------------------------------
    def score_samples(self, data: np.ndarray) -> np.ndarray:
        """Natural-log mixture density ``ln Pr(M)`` per sample."""
        self._require_fitted()
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        params = self.parameters
        return kernels.log_density_batch(
            data, params.weights, params.means, params.cholesky_factors
        )

    def score_one(self, point: np.ndarray) -> float:
        return float(self.score_samples(point[np.newaxis, :])[0])

    def log_likelihood(self, data: np.ndarray) -> float:
        """Total training-style log-likelihood Σ log Pr(M_i)."""
        return float(self.score_samples(data).sum())

    def responsibilities(self, data: np.ndarray) -> np.ndarray:
        """(N, J) posterior component memberships."""
        self._require_fitted()
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        params = self.parameters
        return kernels.responsibilities_batch(
            data, params.weights, params.means, params.cholesky_factors
        )[1]

    def predict_component(self, data: np.ndarray) -> np.ndarray:
        """Hard assignment to the most responsible component."""
        return self.responsibilities(data).argmax(axis=1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points from the fitted mixture."""
        self._require_fitted()
        params = self.parameters
        counts = rng.multinomial(n, params.weights)
        chunks = []
        for j, count in enumerate(counts):
            if count == 0:
                continue
            standard = rng.standard_normal((count, params.dimension))
            chunks.append(params.means[j] + standard @ params.cholesky_factors[j].T)
        points = np.concatenate(chunks, axis=0)
        rng.shuffle(points)
        return points

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        self._require_fitted()
        return {
            "weights": self.parameters.weights,
            "means": self.parameters.means,
            "covariances": self.parameters.covariances,
        }

    @classmethod
    def from_arrays(cls, arrays: dict, **kwargs) -> "GaussianMixtureModel":
        model = cls(num_components=len(arrays["weights"]), **kwargs)
        model.parameters = GmmParameters(
            weights=np.asarray(arrays["weights"], dtype=np.float64),
            means=np.asarray(arrays["means"], dtype=np.float64),
            covariances=np.asarray(arrays["covariances"], dtype=np.float64),
        )
        model.converged_ = True
        return model

    def _require_fitted(self) -> None:
        if self.parameters is None:
            raise RuntimeError("GaussianMixtureModel has not been fitted")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.parameters is None:
            return f"GaussianMixtureModel(J={self.num_components}, unfitted)"
        return (
            f"GaussianMixtureModel(J={self.num_components}, "
            f"D={self.parameters.dimension}, "
            f"ll={self.training_log_likelihood_:.1f})"
        )

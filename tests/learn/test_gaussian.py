"""Tests for the multivariate Gaussian density and its Cholesky factor.

The density is :func:`repro.kernels.component_log_densities`; each
check runs under both backends, so scipy cross-checks the scalar
oracle as well as the vectorized path.
"""

import numpy as np
import pytest
from scipy import stats

from repro import kernels
from repro.learn.gmm import regularized_cholesky


def log_densities(x, means, covariances):
    """``(N, J)`` log densities per backend, keyed by backend name."""
    factors = np.array([np.linalg.cholesky(c) for c in covariances])
    results = {}
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            results[backend] = kernels.component_log_densities(
                np.atleast_2d(x), np.asarray(means), factors
            )
    return results


class TestRegularizedCholesky:
    def test_already_positive_definite(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        factor = regularized_cholesky(cov, ridge=0.0 + 1e-12)
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-6)

    def test_singular_matrix_regularized(self):
        cov = np.ones((3, 3))  # rank 1
        factor = regularized_cholesky(cov, ridge=1e-6)
        assert np.isfinite(factor).all()
        assert (np.diag(factor) > 0).all()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            regularized_cholesky(np.ones((2, 3)))

    def test_escalating_ridge(self):
        """A (slightly) negative-definite input still factorises."""
        cov = np.array([[1.0, 0.0], [0.0, -1e-9]])
        factor = regularized_cholesky(cov, ridge=1e-8)
        assert np.isfinite(factor).all()


class TestLogPdf:
    def test_matches_scipy_isotropic(self):
        rng = np.random.default_rng(0)
        mean = rng.normal(size=4)
        cov = np.eye(4) * 2.5
        x = rng.normal(size=(20, 4))
        expected = stats.multivariate_normal(mean=mean, cov=cov).logpdf(x)
        for values in log_densities(x, [mean], [cov]).values():
            np.testing.assert_allclose(values[:, 0], expected, atol=1e-8)

    def test_matches_scipy_full_covariance(self):
        rng = np.random.default_rng(1)
        mean = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        x = rng.normal(size=(50, 3))
        expected = stats.multivariate_normal(mean=mean, cov=cov).logpdf(x)
        for values in log_densities(x, [mean], [cov]).values():
            np.testing.assert_allclose(values[:, 0], expected, atol=1e-7)

    def test_single_point(self):
        expected = -np.log(2 * np.pi)  # standard normal at the mean
        for values in log_densities(np.zeros(2), [np.zeros(2)], [np.eye(2)]).values():
            np.testing.assert_allclose(values, [[expected]])

    def test_density_maximised_at_mean(self):
        mean = np.array([1.0, -2.0])
        cov = np.diag([0.5, 2.0])
        rng = np.random.default_rng(2)
        points = np.vstack([mean, mean + rng.normal(size=(20, 2))])
        for values in log_densities(points, [mean], [cov]).values():
            assert (values[1:, 0] <= values[0, 0]).all()

    def test_cholesky_variant_consistent(self):
        """Each column of a multi-component call is that component's
        scipy density."""
        rng = np.random.default_rng(3)
        means = rng.normal(size=(3, 3))
        covariances = []
        for _ in range(3):
            a = rng.normal(size=(3, 3))
            covariances.append(a @ a.T + np.eye(3))
        x = rng.normal(size=(10, 3))
        expected = np.stack(
            [
                stats.multivariate_normal(mean=m, cov=c).logpdf(x)
                for m, c in zip(means, covariances)
            ],
            axis=1,
        )
        for values in log_densities(x, means, covariances).values():
            np.testing.assert_allclose(values, expected, atol=1e-8)

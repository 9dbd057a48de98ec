"""Tests for the Gaussian mixture model and EM."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.learn.gmm import GaussianMixtureModel, GmmParameters


def three_component_data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    weights = np.array([0.5, 0.3, 0.2])
    counts = (weights * n).astype(int)
    chunks = [
        m + rng.normal(scale=0.7, size=(c, 2)) for m, c in zip(means, counts)
    ]
    return np.concatenate(chunks), means, weights


class TestParameters:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmParameters(
                weights=np.array([0.5, 0.4]),
                means=np.zeros((2, 2)),
                covariances=np.stack([np.eye(2)] * 2),
            )

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GmmParameters(
                weights=np.array([1.5, -0.5]),
                means=np.zeros((2, 2)),
                covariances=np.stack([np.eye(2)] * 2),
            )

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            GmmParameters(
                weights=np.array([1.0]),
                means=np.zeros((2, 2)),
                covariances=np.stack([np.eye(2)] * 2),
            )

    def test_cholesky_factors_computed(self):
        params = GmmParameters(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            covariances=np.stack([2.0 * np.eye(2)]),
        )
        np.testing.assert_allclose(
            params.cholesky_factors[0] @ params.cholesky_factors[0].T,
            2.0 * np.eye(2),
            atol=1e-4,  # the factor includes the small stability ridge
        )


class TestFitting:
    def test_recovers_mixture_structure(self):
        data, true_means, true_weights = three_component_data()
        model = GaussianMixtureModel(num_components=3, num_restarts=3, seed=0).fit(
            data
        )
        params = model.parameters
        # Match each true mean to the closest fitted mean.
        for true_mean, true_weight in zip(true_means, true_weights):
            distances = np.linalg.norm(params.means - true_mean, axis=1)
            j = distances.argmin()
            assert distances[j] < 0.5
            assert params.weights[j] == pytest.approx(true_weight, abs=0.05)

    def test_weights_normalised(self):
        data, _, _ = three_component_data()
        model = GaussianMixtureModel(num_components=4, num_restarts=2, seed=0).fit(
            data
        )
        assert model.parameters.weights.sum() == pytest.approx(1.0)

    def test_more_components_never_hurt_likelihood(self):
        data, _, _ = three_component_data()
        ll = []
        for j in (1, 3):
            model = GaussianMixtureModel(
                num_components=j, num_restarts=3, seed=0
            ).fit(data)
            ll.append(model.log_likelihood(data))
        assert ll[1] > ll[0]

    def test_single_component_is_gaussian_fit(self):
        data, _, _ = three_component_data()
        model = GaussianMixtureModel(num_components=1, num_restarts=1, seed=0).fit(
            data
        )
        np.testing.assert_allclose(
            model.parameters.means[0], data.mean(axis=0), atol=1e-6
        )

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            GaussianMixtureModel(num_components=5).fit(np.zeros((3, 2)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GaussianMixtureModel(num_components=0)
        with pytest.raises(ValueError):
            GaussianMixtureModel(num_restarts=0)

    def test_restarts_pick_best_likelihood(self):
        data, _, _ = three_component_data(n=150)
        single = GaussianMixtureModel(
            num_components=3, num_restarts=1, seed=3
        ).fit(data)
        multi = GaussianMixtureModel(
            num_components=3, num_restarts=8, seed=3
        ).fit(data)
        assert multi.training_log_likelihood_ >= single.training_log_likelihood_ - 1e-6

    def test_degenerate_tight_cluster_survives(self):
        """Near-zero-variance clusters (predictable RT workloads!) must
        not crash EM."""
        rng = np.random.default_rng(0)
        data = np.concatenate(
            [np.zeros((50, 3)), np.ones((50, 3)) * 5 + rng.normal(scale=1e-9, size=(50, 3))]
        )
        model = GaussianMixtureModel(num_components=2, num_restarts=2, seed=0).fit(
            data
        )
        assert np.isfinite(model.score_samples(data)).all()


class TestScoring:
    @pytest.fixture(scope="class")
    def fitted(self):
        data, _, _ = three_component_data()
        model = GaussianMixtureModel(num_components=3, num_restarts=3, seed=0).fit(
            data
        )
        return model, data

    def test_scores_finite(self, fitted):
        model, data = fitted
        assert np.isfinite(model.score_samples(data)).all()

    def test_outlier_scores_lower(self, fitted):
        model, data = fitted
        typical = model.score_samples(data).mean()
        outlier = model.score_one(np.array([50.0, 50.0]))
        assert outlier < typical - 10

    def test_eq2_weighted_sum(self, fitted):
        """Pr(M) = sum_j lambda_j f(M | mu_j, Sigma_j) (paper Eq. 2)."""
        model, data = fitted
        params = model.parameters
        point = data[0]
        manual = sum(
            params.weights[j]
            * stats.multivariate_normal(
                mean=params.means[j], cov=params.covariances[j]
            ).pdf(point)
            for j in range(3)
        )
        np.testing.assert_allclose(
            model.score_one(point), np.log(manual), atol=1e-3
        )

    def test_responsibilities_sum_to_one(self, fitted):
        model, data = fitted
        resp = model.responsibilities(data[:20])
        np.testing.assert_allclose(resp.sum(axis=1), 1.0)

    def test_predict_component_separates_blobs(self, fitted):
        model, data = fitted
        labels = model.predict_component(data)
        assert len(np.unique(labels)) == 3

    def test_sample_roundtrip(self, fitted):
        model, data = fitted
        rng = np.random.default_rng(0)
        drawn = model.sample(500, rng)
        assert drawn.shape == (500, 2)
        # Samples score like training data, not like outliers.
        assert model.score_samples(drawn).mean() == pytest.approx(
            model.score_samples(data).mean(), abs=1.0
        )

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not been fitted"):
            GaussianMixtureModel().score_samples(np.zeros((1, 2)))


class TestCollapsedComponents:
    """Regression: a zero-weight (collapsed) component used to emit a
    divide-by-zero RuntimeWarning from ``np.log(0)`` on every scoring
    call — fatal under ``make test-fast``'s warnings-as-errors filter.
    The kernels' ``safe_log_weights`` now scores it as exactly -inf,
    silently."""

    @pytest.fixture()
    def collapsed(self):
        model = GaussianMixtureModel(num_components=3)
        model.parameters = GmmParameters(
            weights=np.array([0.6, 0.4, 0.0]),
            means=np.array([[0.0, 0.0], [5.0, 5.0], [99.0, 99.0]]),
            covariances=np.stack([np.eye(2)] * 3),
        )
        model.converged_ = True
        return model

    def test_scores_finite_without_warnings(self, collapsed):
        import warnings

        data = np.array([[0.1, -0.2], [5.2, 4.9], [2.5, 2.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            densities = collapsed.score_samples(data)
        assert np.isfinite(densities).all()

    def test_dead_component_never_responsible(self, collapsed):
        data = np.array([[99.0, 99.0], [0.0, 0.0]])
        resp = collapsed.responsibilities(data)
        # Even a point sitting exactly on the dead component's mean
        # belongs to the live components only.
        np.testing.assert_array_equal(resp[:, 2], 0.0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0)

    def test_dead_component_matches_its_removal(self, collapsed):
        """Scoring with the collapsed component present equals scoring
        the two-component mixture with it dropped."""
        data = np.array([[0.5, 0.5], [4.0, 4.5]])
        trimmed = GaussianMixtureModel(num_components=2)
        trimmed.parameters = GmmParameters(
            weights=np.array([0.6, 0.4]),
            means=collapsed.parameters.means[:2],
            covariances=collapsed.parameters.covariances[:2],
        )
        trimmed.converged_ = True
        np.testing.assert_allclose(
            collapsed.score_samples(data), trimmed.score_samples(data), atol=1e-12
        )


class TestPersistence:
    def test_roundtrip(self):
        data, _, _ = three_component_data(n=200)
        model = GaussianMixtureModel(num_components=2, num_restarts=2, seed=0).fit(
            data
        )
        restored = GaussianMixtureModel.from_arrays(model.to_arrays())
        np.testing.assert_allclose(
            restored.score_samples(data), model.score_samples(data), atol=1e-9
        )


def tight_cluster_data():
    """The near-deterministic data of ``test_degenerate_tight_cluster_survives``."""
    rng = np.random.default_rng(0)
    return np.concatenate(
        [np.zeros((50, 3)), np.ones((50, 3)) * 5 + rng.normal(scale=1e-9, size=(50, 3))]
    )


def overlapping_data():
    """Four overlapping blobs in 3-D: EM runs for dozens of iterations
    and each seed lands on its own local optimum."""
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=1.5, size=(4, 3))
    labels = rng.integers(4, size=160)
    return centers[labels] + rng.normal(size=(160, 3))


def sparse_data():
    """Too few samples per component, so k-means clusters with at most
    ``dim`` members fall back to the global covariance seed."""
    return np.random.default_rng(11).normal(size=(16, 4))


#: (data, GaussianMixtureModel kwargs) per pinned fit.
EM_FIT_CASES = {
    **{
        f"seed{seed}": (
            overlapping_data,
            dict(num_components=3, num_restarts=2, seed=seed),
        )
        for seed in range(6)
    },
    "one-component": (
        lambda: three_component_data(n=150)[0],
        dict(num_components=1, num_restarts=1, seed=0),
    ),
    "tight-cluster": (
        tight_cluster_data,
        dict(num_components=2, num_restarts=2, seed=0),
    ),
    "sparse": (sparse_data, dict(num_components=5, num_restarts=2, seed=0)),
}

#: sha256 (first 16 hex digits) of the fitted weights, means,
#: covariances, ``log_likelihood_trajectory_``,
#: ``training_log_likelihood_`` and ``iterations_`` per case.  A change
#: to how EM seeds, steps or packages a fit must keep every bit.
PINNED_EM_FITS = {
    "one-component": "57e85f0d142524ec",
    "seed0": "0f8a64e1dc967dbc",
    "seed1": "865a7b2791fae9e8",
    "seed2": "28cf66d956793631",
    "seed3": "ed4484d241ca1fe3",
    "seed4": "13fa798c3bd3d48c",
    "seed5": "ed4484d241ca1fe3",
    "sparse": "9e2c51d3920e4376",
    "tight-cluster": "0a6973165054ebcd",
}


def em_fit_digest(model: GaussianMixtureModel) -> str:
    params = model.parameters
    digest = hashlib.sha256()
    for array in (
        params.weights,
        params.means,
        params.covariances,
        np.array(model.log_likelihood_trajectory_, dtype=np.float64),
        np.array([model.training_log_likelihood_]),
        np.array([model.iterations_], dtype=np.float64),
    ):
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


class TestPinnedFits:
    @pytest.mark.parametrize("case", sorted(EM_FIT_CASES))
    def test_fit_is_bit_identical(self, case):
        data_fn, kwargs = EM_FIT_CASES[case]
        with use_backend(DEFAULT_BACKEND):
            model = GaussianMixtureModel(**kwargs).fit(data_fn())
        assert em_fit_digest(model) == PINNED_EM_FITS[case]

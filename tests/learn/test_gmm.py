"""Tests for the Gaussian mixture model and EM."""

import numpy as np
import pytest
from scipy import stats

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

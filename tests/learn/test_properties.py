"""Property-based tests of the learning stack (hypothesis).

These pin the mathematical contracts the detector relies on, over
randomly generated MHM-like batches rather than hand-picked fixtures:

* GMM EM — densities stay finite and the winning restart's mean
  log-likelihood is non-decreasing per iteration (equivalently, NLL is
  non-increasing: EM's monotonicity guarantee);
* eigenmemory PCA — projection round-trips within the bound set by the
  discarded eigenvalue mass;
* threshold calibration — θ_p is monotone in p and empirically
  calibrated (flags at most p% of its own calibration set).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn.gmm import GaussianMixtureModel
from repro.learn.pca import Eigenmemory
from repro.learn.threshold import ThresholdBank, quantile_threshold


def _blob_batch(seed: int, samples: int, features: int, clusters: int) -> np.ndarray:
    """A clustered batch shaped like projected MHM feature vectors."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(clusters, features))
    labels = rng.integers(clusters, size=samples)
    return centers[labels] + rng.normal(scale=0.7, size=(samples, features))


def _check_em_fit(seed: int, samples: int, features: int, components: int) -> None:
    data = _blob_batch(seed, samples, features, clusters=components)
    gmm = GaussianMixtureModel(
        num_components=components, num_restarts=1, max_iterations=50, seed=seed
    )
    gmm.fit(data)

    densities = gmm.score_samples(data)
    assert np.all(np.isfinite(densities))

    trajectory = np.asarray(gmm.log_likelihood_trajectory_)
    assert trajectory.size >= 1 and np.all(np.isfinite(trajectory))
    # EM guarantee: mean LL never decreases ⇔ NLL never increases.
    # The covariance ridge (default 1e-4) perturbs the exact M-step
    # maximizer, so monotonicity holds up to a ridge-scale slack —
    # still ~100x tighter than any genuine EM regression.
    nll = -trajectory
    slack = 1e-4 * np.maximum(1.0, np.abs(trajectory[:-1]))
    assert np.all(np.diff(nll) <= slack)


class TestGmmProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        samples=st.integers(min_value=30, max_value=80),
        features=st.integers(min_value=2, max_value=5),
        components=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_density_finite_and_nll_non_increasing(
        self, seed, samples, features, components
    ):
        _check_em_fit(seed, samples, features, components)

    # Examples hypothesis found once.  EM keeps the worse parameters
    # when a ridged step lowers the likelihood, so their NLL rises past
    # the slack (by 4.2e-4, 9.6e-3 and 3.29e-4).  When EM is fixed these
    # xfails turn red; move the examples onto the property test above
    # as @example entries then.
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'Two pre-existing defects that re-record "
        "perfbench/golden.json': GMM EM keeps the worse parameters when "
        "a step lowers the likelihood",
    )
    @pytest.mark.parametrize(
        "seed, samples, features, components",
        [(26271, 30, 3, 3), (1262, 37, 4, 3), (12516, 35, 2, 3)],
    )
    def test_recorded_nll_rises(self, seed, samples, features, components):
        _check_em_fit(seed, samples, features, components)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_weights_form_a_distribution(self, seed):
        data = _blob_batch(seed, samples=60, features=3, clusters=2)
        gmm = GaussianMixtureModel(
            num_components=2, num_restarts=1, max_iterations=50, seed=seed
        )
        gmm.fit(data)
        weights = gmm.parameters.weights
        assert np.all(weights >= 0)
        assert np.isclose(weights.sum(), 1.0)


class TestPcaProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        samples=st.integers(min_value=12, max_value=40),
        features=st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_full_rank_round_trip_is_lossless(self, seed, samples, features):
        data = np.random.default_rng(seed).normal(size=(samples, features))
        pca = Eigenmemory(num_components=min(samples, features))
        pca.fit(data)
        reconstructed = pca.inverse_transform(pca.transform(data))
        assert np.allclose(reconstructed, data, atol=1e-8)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        keep=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_truncated_round_trip_error_bounded_by_dropped_mass(self, seed, keep):
        data = _blob_batch(seed, samples=50, features=6, clusters=3)
        full = Eigenmemory(num_components=6)
        full.fit(data)
        pca = Eigenmemory(num_components=keep)
        pca.fit(data)

        reconstructed = pca.inverse_transform(pca.transform(data))
        mean_sq_error = float(np.mean(np.sum((data - reconstructed) ** 2, axis=1)))
        # Mean squared reconstruction error equals the dropped
        # eigenvalue mass exactly (PCA optimality); allow roundoff.
        dropped_mass = float(np.sum(full.eigenvalues_[keep:]))
        assert mean_sq_error <= dropped_mass * (1 + 1e-6) + 1e-8

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_more_components_never_increase_error(self, seed):
        data = _blob_batch(seed, samples=40, features=5, clusters=2)
        errors = []
        for keep in (1, 2, 3, 4, 5):
            pca = Eigenmemory(num_components=keep)
            pca.fit(data)
            errors.append(float(np.mean(pca.reconstruction_error(data))))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


class TestThresholdProperties:
    log_density_batches = st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=2,
        max_size=300,
    )

    @given(
        densities=log_density_batches,
        p_low=st.floats(min_value=0.1, max_value=40.0),
        p_delta=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_monotone_in_p_and_within_range(
        self, densities, p_low, p_delta
    ):
        batch = np.asarray(densities)
        theta_low = quantile_threshold(batch, p_low)
        theta_high = quantile_threshold(batch, p_low + p_delta)
        assert theta_low <= theta_high
        assert batch.min() <= theta_low and theta_high <= batch.max()

    @given(
        densities=log_density_batches,
        p_percent=st.floats(min_value=0.1, max_value=99.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_calibrated_flag_rate_at_most_p(self, densities, p_percent):
        """θ_p's contract: on its own calibration set, *strictly below*
        θ_p means anomalous.  With linear-interpolated quantiles the
        flagged count is bounded by the order statistic just above the
        quantile position: floor(q·(n−1)) + 1."""
        batch = np.asarray(densities)
        bank = ThresholdBank.calibrate(batch, quantiles=(p_percent,))
        flagged = bank.flag_series(batch, p_percent)
        q = p_percent / 100.0
        bound = np.floor(q * (batch.size - 1) + 1e-9) + 1
        assert flagged.sum() <= bound

    @given(densities=log_density_batches, shift=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_threshold_equivariant_under_shift(self, densities, shift):
        batch = np.asarray(densities)
        assert np.isclose(
            quantile_threshold(batch + shift, 1.0),
            quantile_threshold(batch, 1.0) + shift,
            atol=1e-6 * max(1.0, np.abs(batch).max()),
        )

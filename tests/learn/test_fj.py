"""Tests for Figueiredo-Jain automatic component selection."""

import hashlib

import numpy as np
import pytest

from repro import kernels
from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.learn.fj import FigueiredoJainGmm


def blobs(component_means, n_per=120, seed=0, spread=0.5):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            np.asarray(m) + rng.normal(scale=spread, size=(n_per, len(m)))
            for m in component_means
        ]
    )


class TestSelection:
    def test_recovers_three_components(self):
        data = blobs([[0, 0], [10, 0], [0, 10]], n_per=300, spread=0.3)
        model = FigueiredoJainGmm(max_components=10, seed=0).fit(data)
        assert model.num_components_ == 3

    def test_never_overshoots_badly(self):
        """On looser blobs MML may keep one extra component, never many."""
        data = blobs([[0, 0], [10, 0], [0, 10]], n_per=120, spread=0.5)
        model = FigueiredoJainGmm(max_components=10, seed=0).fit(data)
        assert 3 <= model.num_components_ <= 4

    def test_recovers_two_components(self):
        data = blobs([[0, 0], [12, 12]])
        model = FigueiredoJainGmm(max_components=8, seed=0).fit(data)
        assert model.num_components_ == 2

    def test_single_blob_collapses_to_one(self):
        data = blobs([[0, 0]], n_per=300)
        model = FigueiredoJainGmm(max_components=6, seed=0).fit(data)
        assert model.num_components_ <= 2

    def test_history_is_populated(self):
        data = blobs([[0, 0], [10, 0]])
        model = FigueiredoJainGmm(max_components=6, seed=0).fit(data)
        assert model.history_
        assert all(length > -np.inf for _, length in model.history_)
        assert model.message_length_ == min(length for _, length in model.history_)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            FigueiredoJainGmm(max_components=2, min_components=3)
        with pytest.raises(ValueError):
            FigueiredoJainGmm(min_components=0)

    def test_bad_data_shape(self):
        with pytest.raises(ValueError, match="matrix"):
            FigueiredoJainGmm().fit(np.zeros(10))


class TestScoring:
    def test_scores_finite_and_separating(self):
        data = blobs([[0, 0], [10, 0], [0, 10]])
        model = FigueiredoJainGmm(max_components=10, seed=0).fit(data)
        scores = model.score_samples(data)
        assert np.isfinite(scores).all()
        outlier = model.score_samples(np.array([[100.0, 100.0]]))
        assert outlier[0] < scores.mean() - 10

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FigueiredoJainGmm().score_samples(np.zeros((1, 2)))

    def test_model_usable_as_gmm(self):
        data = blobs([[0, 0], [10, 0]])
        model = FigueiredoJainGmm(max_components=6, seed=0).fit(data)
        assert model.model_.parameters.weights.sum() == pytest.approx(1.0)
        labels = model.model_.predict_component(data)
        assert len(np.unique(labels)) == model.num_components_


#: sha256 (first 16 hex digits) of the fitted weights, means,
#: covariances, message length and ``history_`` per seed, on four
#: blobs.  A change to how FJ evaluates densities must keep every bit.
PINNED_FITS = {
    0: (6, "0c65d2b85e8fb9e4"),
    1: (5, "d8235a11a459222e"),
    2: (7, "f9c448e9bf1d86b5"),
    3: (5, "38854f2cdbc739e7"),
    4: (6, "52ef8dd9303b8516"),
    5: (6, "46ce483bfeebc8d8"),
}


def fit_digest(model: FigueiredoJainGmm) -> str:
    params = model.model_.parameters
    digest = hashlib.sha256()
    for array in (
        params.weights,
        params.means,
        params.covariances,
        np.array([model.message_length_]),
        np.array(model.history_, dtype=np.float64),
    ):
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


class TestPinnedFits:
    @pytest.fixture(scope="class")
    def data(self):
        return blobs([[0, 0], [8, 0], [0, 8], [8, 8]], n_per=100, spread=0.6)

    @pytest.mark.parametrize("seed", sorted(PINNED_FITS))
    def test_fit_is_bit_identical(self, data, seed):
        with use_backend(DEFAULT_BACKEND):
            model = FigueiredoJainGmm(max_components=10, seed=seed).fit(data)
        assert (model.num_components_, fit_digest(model)) == PINNED_FITS[seed]


class TestKernelRouting:
    def test_e_step_calls_the_active_backend(self, monkeypatch):
        """Each E-step evaluates ``component_log_densities`` on the
        active backend, so the reference backend runs the whole fit."""
        data = blobs([[0, 0], [10, 0]])
        for backend in kernels.BACKENDS:
            module = kernels.backend_module(backend)
            calls = []
            original = module.component_log_densities

            def probe(*args, _original=original, **kwargs):
                calls.append(len(args[1]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "component_log_densities", probe)
            with kernels.use_backend(backend):
                model = FigueiredoJainGmm(
                    max_components=3, max_iterations=5, seed=0
                ).fit(data)
            # The last call scores the winning model; the one before it
            # is the last E-step.
            assert calls and calls[0] == 3
            assert calls[-2] == model.history_[-1][0]
            assert calls[-1] == model.num_components_

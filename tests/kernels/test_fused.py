"""Fused fleet-scoring kernel: differential and padding suite.

Three contracts, each on hypothesis-generated model fixtures, for the
facade's fused call under each backend:

* **float64 differential** — fused vectorized ≡ the unfused vectorized
  chain bitwise, and ≡ the scalar reference oracle within 1e-9;
* **bitwise pins** — fused float64 reproduces the unfused
  project → log-density chain over zero-padded chunks and the context
  detector's ``score_series`` / ``drift_series`` residuals exactly
  (the shipped-digest contract);
* **padding purity** — zero-padded rows never influence a real row's
  score: every row scored inside any batch equals the row scored
  alone, bitwise.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import reference, vectorized
from repro.learn.contexts import ContextDetector

ATOL = 1e-9

# Small fixture dims keep hypothesis fast while exercising every shape
# the serving layer produces (cells >> rank, several mixture
# components, a context bank plus hyperperiod phases).
CELLS, RANK, COMPONENTS = 24, 4, 3
SYSCALL_DIM, CONTEXTS, HYPERPERIOD = 6, 4, 5


def _fixture(seed, n, collapse_component=False, zero_scale=False):
    """One profile's model arrays plus an n-row device batch."""
    rng = np.random.default_rng(seed)
    mean = rng.random(CELLS) * 100.0
    basis, _ = np.linalg.qr(rng.standard_normal((CELLS, RANK)))
    components = basis.T
    matrix = mean + rng.standard_normal((n, CELLS)) * 10.0
    gmm_means = rng.standard_normal((COMPONENTS, RANK)) * 3.0
    factors = rng.standard_normal((COMPONENTS, RANK, RANK)) * 0.4
    covariances = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(RANK)
    chols = np.linalg.cholesky(covariances)
    weights = rng.dirichlet(np.ones(COMPONENTS))
    if collapse_component:
        weights = weights.copy()
        weights[0] = 0.0
        weights /= weights.sum()
    centers = rng.random((CONTEXTS, SYSCALL_DIM)) * 30.0
    scales = rng.random(CONTEXTS) * 2.0 + 0.25
    if zero_scale:
        scales = scales.copy()
        scales[0] = 0.0
    phase_means = rng.random((HYPERPERIOD, SYSCALL_DIM)) * 30.0
    syscalls = rng.integers(0, 40, size=(n, SYSCALL_DIM)).astype(np.float64)
    phases = (np.arange(n, dtype=np.int64) + int(seed) % 7) % HYPERPERIOD
    return SimpleNamespace(
        matrix=matrix,
        mean=mean,
        components=components,
        weights=weights,
        gmm_means=gmm_means,
        chols=chols,
        centers=centers,
        scales=scales,
        phase_means=phase_means,
        syscalls=syscalls,
        phases=phases,
    )


def _fused(module, fx, *, pad_to=None, with_context=True):
    """The facade's fused call under ``module``'s backend, as a
    ``(log_densities, context_scores, context_residuals)`` tuple."""
    kwargs = {}
    if with_context:
        kwargs = dict(
            syscalls=fx.syscalls,
            centers=fx.centers,
            scales=fx.scales,
            phase_means=fx.phase_means,
            phases=fx.phases,
        )
    with kernels.use_backend(module.__name__.rpartition(".")[2]):
        scores = kernels.fleet_score_batch(
            fx.matrix,
            fx.mean,
            fx.components,
            fx.weights,
            fx.gmm_means,
            fx.chols,
            pad_to=pad_to,
            **kwargs,
        )
    return scores.log_densities, scores.context_scores, scores.context_residuals


batch_cases = given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=40),
    pad_to=st.sampled_from([None, 1, 7, 32]),
)


class TestFloat64Differential:
    @batch_cases
    @settings(max_examples=40, deadline=None)
    def test_fused_matches_unfused_chain_bitwise(self, seed, n, pad_to):
        """project→log_density at the batch's own shape (pad_to=None),
        or over zero-padded ``pad_to``-row chunks."""
        fx = _fixture(seed, n)
        densities, _, _ = _fused(
            vectorized, fx, pad_to=pad_to, with_context=False
        )
        chunk = pad_to or n
        expected = []
        with kernels.use_backend("vectorized"):
            for start in range(0, n, chunk):
                rows = fx.matrix[start : start + chunk]
                padded = np.zeros((chunk, CELLS))
                padded[: len(rows)] = rows
                reduced = kernels.project_batch(padded, fx.mean, fx.components)
                expected.append(
                    kernels.log_density_batch(
                        reduced, fx.weights, fx.gmm_means, fx.chols
                    )[: len(rows)]
                )
        np.testing.assert_array_equal(densities, np.concatenate(expected))

    @batch_cases
    @settings(max_examples=40, deadline=None)
    def test_fused_matches_reference_oracle(self, seed, n, pad_to):
        fx = _fixture(seed, n)
        vec = _fused(vectorized, fx, pad_to=pad_to)
        ref = _fused(reference, fx, pad_to=pad_to)
        for got, want in zip(vec, ref):
            np.testing.assert_allclose(got, want, atol=ATOL, rtol=0)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_collapsed_gmm_component(self, seed):
        """A zero-weight component scores as impossible, silently."""
        fx = _fixture(seed, 12, collapse_component=True)
        vec = _fused(vectorized, fx, pad_to=7)
        ref = _fused(reference, fx, pad_to=7)
        assert np.isfinite(vec[0]).all()
        np.testing.assert_allclose(vec[0], ref[0], atol=ATOL, rtol=0)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_zero_scale_context(self, seed):
        """Zero-scale contexts score inf for positive distances."""
        fx = _fixture(seed, 12, zero_scale=True)
        vec = _fused(vectorized, fx, pad_to=None)
        ref = _fused(reference, fx, pad_to=None)
        finite = np.isfinite(ref[1])
        np.testing.assert_array_equal(np.isfinite(vec[1]), finite)
        np.testing.assert_allclose(
            vec[1][finite], ref[1][finite], atol=ATOL, rtol=0
        )


class TestServeLayerPins:
    """The fused float64 path reproduces the pre-fusion serving ops
    bitwise — the serial ≡ sharded digest contract depends on it."""

    def test_context_scores_and_residuals_pin_detector(self):
        fx = _fixture(7, 20)
        detector = ContextDetector(
            num_contexts=CONTEXTS, hyperperiod=HYPERPERIOD
        )
        detector.centers_ = fx.centers
        detector.scales_ = fx.scales
        # phase_means_ is phase_sums_ / phase_counts_; pick counts of 1
        # so the fixture's phase means round-trip exactly.
        detector.phase_sums_ = fx.phase_means.copy()
        detector.phase_counts_ = np.ones(HYPERPERIOD, dtype=np.int64)
        scores = _fused(vectorized, fx, pad_to=None)
        start = int(fx.phases[0])
        with kernels.use_backend("vectorized"):
            context_scores = detector.score_series(fx.syscalls)
            expected_drift = detector.drift_series(fx.syscalls, start_index=start)
        np.testing.assert_array_equal(scores[1], context_scores)
        cumulative = np.cumsum(scores[2], axis=0)
        np.testing.assert_array_equal(
            np.abs(cumulative).max(axis=1), expected_drift
        )

    def test_empty_batch(self):
        fx = _fixture(3, 1)
        empty = SimpleNamespace(**{**vars(fx)})
        empty.matrix = np.empty((0, CELLS))
        empty.syscalls = np.empty((0, SYSCALL_DIM))
        empty.phases = np.empty(0, dtype=np.int64)
        for module in (vectorized, reference):
            densities, ctx, residuals = _fused(module, empty, pad_to=8)
            assert densities.shape == (0,)
            assert ctx.shape == (0,)
            assert residuals.shape[0] == 0


class TestPaddingPurity:
    """Zero-padded rows must never influence a real device's score."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=17),
        pad_to=st.sampled_from([4, 8, 32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_row_scores_independent_of_batchmates(self, seed, n, pad_to):
        fx = _fixture(seed, n)
        batch = _fused(vectorized, fx, pad_to=pad_to)
        for row in range(n):
            alone = SimpleNamespace(**{**vars(fx)})
            alone.matrix = fx.matrix[row : row + 1]
            alone.syscalls = fx.syscalls[row : row + 1]
            alone.phases = fx.phases[row : row + 1]
            solo = _fused(vectorized, alone, pad_to=pad_to)
            np.testing.assert_array_equal(batch[0][row : row + 1], solo[0])
            np.testing.assert_array_equal(batch[1][row : row + 1], solo[1])
            np.testing.assert_array_equal(
                batch[2][row : row + 1], solo[2]
            )

    def test_mostly_padding_chunk(self):
        """A 1-row batch padded to 32 equals the same row at pad_to=1."""
        fx = _fixture(13, 1)
        wide = _fused(vectorized, fx, pad_to=32)
        tight = _fused(vectorized, fx, pad_to=1)
        for a, b in zip(wide, tight):
            np.testing.assert_array_equal(a, b)


class TestFacadeValidation:
    def test_rejects_bad_pad_to(self):
        fx = _fixture(1, 2)
        with pytest.raises(ValueError, match="pad_to"):
            _fused(vectorized, fx, pad_to=0, with_context=False)

    def test_rejects_centers_without_syscalls(self):
        fx = _fixture(1, 2)
        with pytest.raises(ValueError, match="syscall"):
            kernels.fleet_score_batch(
                fx.matrix, fx.mean, fx.components, fx.weights,
                fx.gmm_means, fx.chols, centers=fx.centers,
            )

    def test_rejects_misaligned_phases(self):
        fx = _fixture(1, 4)
        with pytest.raises(ValueError, match="phases"):
            kernels.fleet_score_batch(
                fx.matrix, fx.mean, fx.components, fx.weights,
                fx.gmm_means, fx.chols, syscalls=fx.syscalls,
                centers=fx.centers, scales=fx.scales,
                phase_means=fx.phase_means, phases=fx.phases[:-1],
            )


class TestFleetScorer:
    def test_score_computes_phases_from_interval_indices(self):
        fx = _fixture(9, 15)
        scorer = kernels.FleetScorer(
            pca_mean=fx.mean,
            pca_components=fx.components,
            gmm_weights=fx.weights,
            gmm_means=fx.gmm_means,
            gmm_cholesky_factors=fx.chols,
            context_centers=fx.centers,
            context_scales=fx.scales,
            context_phase_means=fx.phase_means,
            context_hyperperiod=HYPERPERIOD,
        )
        indices = np.arange(15) + 23
        with kernels.use_backend("vectorized"):
            got = scorer.score(
                fx.matrix, syscalls=fx.syscalls, interval_indices=indices
            )
        fx.phases = indices % HYPERPERIOD
        want = _fused(vectorized, fx, pad_to=None)
        np.testing.assert_array_equal(got.log_densities, want[0])
        np.testing.assert_array_equal(got.context_scores, want[1])
        np.testing.assert_array_equal(got.context_residuals, want[2])

    def test_syscalls_without_context_model_raise(self):
        fx = _fixture(2, 3)
        scorer = kernels.FleetScorer(
            pca_mean=fx.mean,
            pca_components=fx.components,
            gmm_weights=fx.weights,
            gmm_means=fx.gmm_means,
            gmm_cholesky_factors=fx.chols,
        )
        with pytest.raises(ValueError, match="context"):
            scorer.score(fx.matrix, syscalls=fx.syscalls)

    def test_mhm_only_scoring(self):
        fx = _fixture(4, 8)
        scorer = kernels.FleetScorer(
            pca_mean=fx.mean,
            pca_components=fx.components,
            gmm_weights=fx.weights,
            gmm_means=fx.gmm_means,
            gmm_cholesky_factors=fx.chols,
        )
        with kernels.use_backend("vectorized"):
            scores = scorer.score(fx.matrix, pad_to=4)
        assert scores.context_scores is None
        assert scores.context_residuals is None
        want = _fused(vectorized, fx, pad_to=4, with_context=False)
        np.testing.assert_array_equal(scores.log_densities, want[0])

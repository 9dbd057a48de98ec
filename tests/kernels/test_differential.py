"""Differential tests: vectorized backend against the scalar oracle.

Every kernel in :mod:`repro.kernels.vectorized` is held to the
independently written pure-Python reference in
:mod:`repro.kernels.reference` on hypothesis-generated inputs —
bit-identical for integer counting, within 1e-9 for floating point —
and so is every kernel the facade composes from them, run under each
backend.  The end-to-end pipeline must produce the same MHM counts and
the same anomaly verdicts under either backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import reference, vectorized
from repro.learn.metrics import alarm_streaks
from repro.sim.platform import Platform
from repro.sim.trace import synthetic_burst

ATOL = 1e-9

# A small region for address-level cases: 8 cells of 256 bytes.
BASE, SIZE, SHIFT, CELLS = 0x1000, 0x800, 8, 8
SMALL_REGION = dict(
    base_address=BASE, region_size=SIZE, shift=SHIFT, num_cells=CELLS
)


def both_count(addresses, weights=None, **kwargs):
    kwargs = kwargs or SMALL_REGION
    return (
        vectorized.count_cells(addresses, weights, **kwargs),
        reference.count_cells(addresses, weights, **kwargs),
    )


class TestCountCells:
    """Integer counting must be bit-identical, not merely close."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=300),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_bursts_bit_identical(self, seed, n, fraction):
        rng = np.random.default_rng(seed)
        burst = synthetic_burst(
            rng, n, base_address=BASE, region_size=SIZE,
            in_region_fraction=fraction,
        )
        (vec_counts, vec_accepted), (ref_counts, ref_accepted) = both_count(
            burst.addresses, burst.weights
        )
        np.testing.assert_array_equal(vec_counts, ref_counts)
        assert vec_counts.dtype == ref_counts.dtype == np.int64
        assert vec_accepted == ref_accepted

    def test_empty_burst(self):
        (vec_counts, vec_accepted), (ref_counts, ref_accepted) = both_count(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(vec_counts, ref_counts)
        assert vec_counts.sum() == 0 and vec_accepted == ref_accepted == 0

    def test_all_out_of_region(self):
        addresses = np.array([BASE - 1, BASE + SIZE, 0, BASE + 10 * SIZE])
        (vec_counts, vec_accepted), (ref_counts, ref_accepted) = both_count(
            addresses
        )
        np.testing.assert_array_equal(vec_counts, ref_counts)
        assert vec_counts.sum() == 0 and vec_accepted == ref_accepted == 0

    def test_region_boundary_addresses(self):
        """First/last in-region byte counted, both neighbours dropped."""
        addresses = np.array([BASE - 1, BASE, BASE + SIZE - 1, BASE + SIZE])
        (vec_counts, vec_accepted), (ref_counts, ref_accepted) = both_count(
            addresses
        )
        np.testing.assert_array_equal(vec_counts, ref_counts)
        assert vec_accepted == ref_accepted == 2
        assert vec_counts[0] == 1 and vec_counts[CELLS - 1] == 1

    def test_default_weights(self):
        addresses = np.array([BASE, BASE, BASE + 0x100])
        (vec_counts, vec_accepted), (ref_counts, ref_accepted) = both_count(
            addresses, None
        )
        np.testing.assert_array_equal(vec_counts, ref_counts)
        assert vec_counts[0] == 2 and vec_counts[1] == 1
        assert vec_accepted == ref_accepted == 3

    @pytest.mark.slow
    def test_exhaustive_address_sweep(self):
        """Every address from below base to beyond the region, one cell
        at a time — the strongest form of the off-by-one guarantee."""
        addresses = np.arange(BASE - 0x120, BASE + SIZE + 0x120, dtype=np.int64)
        for weights in (None, np.arange(len(addresses)) % 7):
            (vec_counts, vec_accepted), (ref_counts, ref_accepted) = both_count(
                addresses, weights
            )
            np.testing.assert_array_equal(vec_counts, ref_counts)
            assert vec_accepted == ref_accepted


def _pca_case(rng, n, num_cells=24, rank=4, constant_cells=0):
    mean = rng.random(num_cells) * 1e3
    basis, _ = np.linalg.qr(rng.standard_normal((num_cells, rank)))
    components = basis.T
    matrix = mean + rng.standard_normal((n, num_cells)) * 10.0
    if constant_cells:
        # Degenerate MHM cells: never-executed code regions count 0
        # in every interval, so whole columns are constant.
        matrix[:, :constant_cells] = 7.0
    weights = rng.standard_normal((n, rank)) * 5.0
    return matrix, mean, components, weights


class TestEigenmemoryKernels:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        constant_cells=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_project_matches_oracle(self, seed, n, constant_cells):
        rng = np.random.default_rng(seed)
        matrix, mean, components, _ = _pca_case(
            rng, n, constant_cells=constant_cells
        )
        vec = vectorized.project_batch(matrix, mean, components)
        ref = reference.project_batch(matrix, mean, components)
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_reconstruct_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        _, mean, components, weights = _pca_case(rng, n)
        vec = vectorized.reconstruct_batch(weights, mean, components)
        ref = reference.reconstruct_batch(weights, mean, components)
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)

    def test_single_sample_batch(self):
        rng = np.random.default_rng(3)
        matrix, mean, components, weights = _pca_case(rng, 1)
        assert vectorized.project_batch(matrix, mean, components).shape == (1, 4)
        np.testing.assert_allclose(
            vectorized.project_batch(matrix, mean, components),
            reference.project_batch(matrix, mean, components),
            atol=ATOL, rtol=0,
        )
        np.testing.assert_allclose(
            vectorized.reconstruct_batch(weights[:1], mean, components),
            reference.reconstruct_batch(weights[:1], mean, components),
            atol=ATOL, rtol=0,
        )


def _gmm_case(rng, n, dim=5, num_components=3, zero_weight=False):
    means = rng.standard_normal((num_components, dim)) * 3.0
    factors = rng.standard_normal((num_components, dim, dim)) * 0.4
    covariances = factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(dim)
    cholesky_factors = np.linalg.cholesky(covariances)
    weights = rng.dirichlet(np.ones(num_components))
    if zero_weight:
        weights[0] = 0.0
        weights /= weights.sum()
    data = rng.standard_normal((n, dim)) * 3.0
    return data, weights, means, cholesky_factors


def on_each_backend(name, *args):
    """``kernels.<name>(*args)`` under each backend: (vectorized, reference)."""
    results = []
    for backend in ("vectorized", "reference"):
        with kernels.use_backend(backend):
            results.append(getattr(kernels, name)(*args))
    return results


class TestGmmKernels:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=60),
        zero_weight=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_log_density_matches_oracle(self, seed, n, zero_weight):
        rng = np.random.default_rng(seed)
        data, weights, means, chols = _gmm_case(rng, n, zero_weight=zero_weight)
        vec, ref = on_each_backend(
            "log_density_batch", data, weights, means, chols
        )
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_component_log_densities_match_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        data, _, means, chols = _gmm_case(rng, n)
        vec = vectorized.component_log_densities(data, means, chols)
        ref = reference.component_log_densities(data, means, chols)
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=60),
        zero_weight=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_responsibilities_match_oracle(self, seed, n, zero_weight):
        rng = np.random.default_rng(seed)
        data, weights, means, chols = _gmm_case(rng, n, zero_weight=zero_weight)
        (vec_norm, vec_resp), (ref_norm, ref_resp) = on_each_backend(
            "responsibilities_batch", data, weights, means, chols
        )
        np.testing.assert_allclose(vec_norm, ref_norm, atol=ATOL, rtol=0)
        np.testing.assert_allclose(vec_resp, ref_resp, atol=ATOL, rtol=0)

    def test_single_sample_batch(self):
        rng = np.random.default_rng(11)
        data, weights, means, chols = _gmm_case(rng, 1)
        vec, ref = on_each_backend(
            "log_density_batch", data, weights, means, chols
        )
        assert vec.shape == ref.shape == (1,)
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_logsumexp_matches_oracle(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((rows, cols)) * 200.0
        # Sprinkle -inf entries (collapsed components).
        values[rng.random((rows, cols)) < 0.2] = -np.inf
        vec = vectorized.logsumexp(values, axis=1)
        ref = reference.logsumexp(values, axis=1)
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)


def _context_case(rng, n, dim=6, num_contexts=4, zero_scales=0):
    centers = rng.random((num_contexts, dim)) * 30.0
    scales = rng.random(num_contexts) * 2.0 + 0.25
    scales[:zero_scales] = 0.0
    data = rng.integers(0, 40, size=(n, dim)).astype(np.float64)
    # Some rows sit exactly on a center: zero distance.
    on_center = rng.random(n) < 0.3
    data[on_center] = centers[rng.integers(0, num_contexts, on_center.sum())]
    return data, centers, scales


class TestContextScores:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=40),
        zero_scales=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, seed, n, zero_scales):
        rng = np.random.default_rng(seed)
        data, centers, scales = _context_case(rng, n, zero_scales=zero_scales)
        vec, ref = on_each_backend("context_scores", data, centers, scales)
        assert vec.shape == ref.shape == (n,)
        np.testing.assert_allclose(vec, ref, atol=ATOL, rtol=0)

    def test_zero_scale_rule(self):
        """A zero-scale context scores 0 at zero distance and inf at
        any positive distance; a positive scale divides."""
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        scales = np.array([0.0, 2.0])
        data = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 12.0]])
        for scores in on_each_backend("context_scores", data, centers, scales):
            np.testing.assert_array_equal(scores, [0.0, np.inf, 1.0])

    def test_empty_batch(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        scales = np.array([0.0, 2.0])
        for scores in on_each_backend(
            "context_scores", np.empty((0, 2)), centers, scales
        ):
            assert scores.shape == (0,)
            assert scores.dtype == np.float64


class TestEndToEnd:
    """The whole pipeline, not just the kernels in isolation."""

    def test_simulated_mhm_counts_bit_identical(self, quick_artifacts):
        """A platform run produces the exact same heat maps under
        either backend: counting is integer arithmetic throughout."""
        series = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                platform = Platform(quick_artifacts.config)
                series[backend] = platform.collect_intervals(6).matrix(
                    dtype=np.int64
                )
        np.testing.assert_array_equal(
            series["vectorized"], series["reference"]
        )

    def test_classify_series_verdicts_identical(self, quick_artifacts):
        """Offline classification flags exactly the same intervals."""
        detector = quick_artifacts.detector
        window = quick_artifacts.data.training
        with kernels.use_backend("vectorized"):
            vec_flags = detector.classify_series(window, p_percent=1.0)
        with kernels.use_backend("reference"):
            ref_flags = detector.classify_series(window, p_percent=1.0)
        np.testing.assert_array_equal(vec_flags, ref_flags)

    @pytest.mark.slow
    def test_online_monitor_alarms_identical(self, quick_artifacts):
        """The monitor path (one fused call over the window, then the
        K-consecutive rule) raises the same alarms at the same
        intervals whichever backend scores the stream."""
        detector = quick_artifacts.detector
        theta = detector.threshold(1.0)
        runs = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                assert kernels.active_backend() == backend
                series = Platform(quick_artifacts.config).collect_intervals(12)
                densities = (
                    kernels.FleetScorer.from_detectors(detector)
                    .score(series.matrix())
                    .log_densities
                )
            flags = densities < theta
            streaks = alarm_streaks(flags, ~np.isfinite(densities))
            runs[backend] = densities, flags, np.flatnonzero(streaks == 1)
        (vec_d, vec_f, vec_a), (ref_d, ref_f, ref_a) = (
            runs["vectorized"],
            runs["reference"],
        )
        np.testing.assert_array_equal(vec_f, ref_f)
        np.testing.assert_array_equal(vec_a, ref_a)
        np.testing.assert_allclose(vec_d, ref_d, atol=ATOL, rtol=0)

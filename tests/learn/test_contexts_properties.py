"""Property-based tests of the context modality (hypothesis).

Four contracts, over randomly generated syscall streams rather than
hand-picked fixtures:

* **permutation invariance** — the fitted contexts are a pure function
  of the *multiset* of training vectors: permuting interval rows or
  reordering training runs cannot move a single bit of the result
  (row canonicalisation + exact int64 phase sums);
* **scale consistency** — the score channel is a ratio of distances,
  so consistently scaled parameters and data leave scores unchanged,
  and refitting on power-of-two-scaled data scales the centers exactly
  (power-of-two multiplication is lossless in binary floating point;
  arbitrary factors would perturb the k-means arithmetic);
* **kernel differential** — the vectorized ``nearest_context_batch``
  agrees with the scalar ``math.fsum`` reference oracle to 1e-9 with
  bit-identical labels;
* **FPR budget** — the calibrated OR-rule ensemble's clean-stream flag
  rate stays within the declared combined budget plus binomial slack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.learn.contexts import ContextDetector, cluster_contexts
from repro.learn.ensemble import EnsembleConfig, allowed_false_positive_rate

pytestmark = [pytest.mark.contexts]

HYPERPERIOD = 4
DIM = 5


def _runs(seed: int, count: int = 3, intervals: int = 16) -> list:
    """Clean periodic syscall streams (integer counts)."""
    rng = np.random.default_rng(seed)
    pattern = rng.integers(2, 15, size=(HYPERPERIOD, DIM))
    out = []
    for _ in range(count):
        phases = np.arange(intervals) % HYPERPERIOD
        noise = rng.integers(0, 3, size=(intervals, DIM))
        out.append((pattern[phases] + noise).astype(np.int64))
    return out


def _fit(runs, seed: int = 0, **kwargs) -> ContextDetector:
    detector = ContextDetector(
        num_contexts=3, hyperperiod=HYPERPERIOD, seed=seed, **kwargs
    )
    return detector.fit(runs[:-1], runs[-1])


class TestPermutationInvariance:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        perm_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_cluster_contexts_ignores_row_order(self, seed, perm_seed):
        rows = np.vstack(_runs(seed))
        permuted = rows[np.random.default_rng(perm_seed).permutation(len(rows))]
        original = cluster_contexts(rows, 3, seed=0)
        shuffled = cluster_contexts(permuted, 3, seed=0)
        np.testing.assert_array_equal(original.centers, shuffled.centers)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        perm_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_fit_ignores_training_run_order(self, seed, perm_seed):
        runs = _runs(seed, count=4)
        training, validation = runs[:-1], runs[-1]
        order = np.random.default_rng(perm_seed).permutation(len(training))
        reordered = [training[i] for i in order]
        original = ContextDetector(
            num_contexts=3, hyperperiod=HYPERPERIOD, seed=0
        ).fit(training, validation)
        shuffled = ContextDetector(
            num_contexts=3, hyperperiod=HYPERPERIOD, seed=0
        ).fit(reordered, validation)
        # Bit-identical fitted state: k-means sees the canonicalised
        # multiset, phase sums accumulate in exact int64.
        assert original.fingerprint() == shuffled.fingerprint()


class TestScaleConsistency:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        factor=st.floats(min_value=0.25, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_scores_invariant_under_consistent_scaling(self, seed, factor):
        # Scale centers, per-context scales and the probe data by the
        # same factor: distances and scales both scale linearly, so the
        # score (their ratio) is unchanged.  scale_floor=0 — a nonzero
        # floor deliberately breaks this linearity for tiny contexts.
        runs = _runs(seed)
        detector = _fit(runs, scale_floor=0.0)
        arrays = detector.to_arrays()
        arrays["context_centers"] = arrays["context_centers"] * factor
        arrays["context_scales"] = arrays["context_scales"] * factor
        scaled = ContextDetector.from_arrays(arrays)
        probe = runs[0].astype(np.float64)
        np.testing.assert_allclose(
            scaled.score_series(probe * factor),
            detector.score_series(probe),
            rtol=1e-9,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        power=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_refit_centers_scale_exactly_with_powers_of_two(
        self, seed, power
    ):
        # 2**k scaling is exact in binary floating point: every
        # distance, partial sum and mean in k-means scales losslessly,
        # so the refitted centers are the scaled originals to the bit.
        factor = float(2**power)
        rows = np.vstack(_runs(seed)).astype(np.float64)
        base = cluster_contexts(rows, 3, seed=0)
        scaled = cluster_contexts(rows * factor, 3, seed=0)
        np.testing.assert_array_equal(scaled.centers, base.centers * factor)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        power=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_drift_scales_exactly_with_powers_of_two(self, seed, power):
        factor = 2**power
        runs = _runs(seed)
        detector = _fit(runs)
        arrays = detector.to_arrays()
        arrays["context_phase_sums"] = (
            arrays["context_phase_sums"] * factor
        )
        scaled = ContextDetector.from_arrays(arrays)
        probe = runs[0]
        np.testing.assert_array_equal(
            scaled.drift_series(probe * factor),
            detector.drift_series(probe) * factor,
        )


class TestKernelDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        rows=st.integers(min_value=1, max_value=40),
        contexts=st.integers(min_value=1, max_value=6),
        dim=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar_oracle(
        self, seed, rows, contexts, dim
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(scale=10.0, size=(rows, dim))
        centers = rng.normal(scale=10.0, size=(contexts, dim))
        with kernels.use_backend("vectorized"):
            fast_labels, fast_dist = kernels.nearest_context_batch(
                matrix, centers
            )
        with kernels.use_backend("reference"):
            ref_labels, ref_dist = kernels.nearest_context_batch(
                matrix, centers
            )
        np.testing.assert_array_equal(fast_labels, ref_labels)
        np.testing.assert_allclose(fast_dist, ref_dist, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_duplicate_centers_break_ties_identically(self, seed):
        # Both backends must pick the *first* minimum, or scoring would
        # depend on the backend through the per-context scales.
        rng = np.random.default_rng(seed)
        center = rng.normal(size=(1, 4))
        centers = np.vstack([center, center, center])
        matrix = rng.normal(size=(8, 4))
        with kernels.use_backend("vectorized"):
            fast_labels, _ = kernels.nearest_context_batch(matrix, centers)
        with kernels.use_backend("reference"):
            ref_labels, _ = kernels.nearest_context_batch(matrix, centers)
        np.testing.assert_array_equal(fast_labels, ref_labels)
        assert np.all(fast_labels == 0)


class TestEnsembleBudget:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        samples=st.integers(min_value=200, max_value=1000),
        p_percent=st.floats(min_value=0.5, max_value=5.0),
        share=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_or_rule_calibrated_rate_within_combined_budget(
        self, seed, samples, p_percent, share
    ):
        # The union bound the docstring promises: calibrating each
        # modality at its share of the budget keeps the fused OR-rule
        # clean rate within p_percent plus binomial slack.  Fusion only
        # reads the thresholds, so no fitted models are needed.
        rng = np.random.default_rng(seed)
        densities = rng.normal(size=samples)
        scores = np.abs(rng.normal(size=samples))
        config = EnsembleConfig(mhm_share=share)
        mhm_p, context_p = config.budgets("ensemble", p_percent)
        fused = config.verdict(
            "ensemble",
            densities < np.quantile(densities, mhm_p / 100.0),
            scores > np.quantile(scores, 1.0 - context_p / 100.0),
        )
        assert float(fused.mean()) <= allowed_false_positive_rate(
            p_percent, samples
        )

    @given(
        p_percent=st.floats(min_value=0.1, max_value=10.0),
        share=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_budget_split_is_complementary_to_the_ulp(self, p_percent, share):
        # The context budget is the subtraction p - p x share (not an
        # independently rounded p x (1 - share)), so the recombined sum
        # sits within one ulp of the declared total — never a rounding
        # hair *above* the union bound's budget beyond that.
        import math

        mhm_p, context_p = EnsembleConfig(mhm_share=share).budgets(
            "ensemble", p_percent
        )
        total = mhm_p + context_p
        assert abs(total - p_percent) <= math.ulp(p_percent)

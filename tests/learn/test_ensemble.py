"""Ensemble unit tests: one budget's split, the fusion rules, and the
thresholds a serving worker takes from the detectors' banks.

The combiner's contract is arithmetic, so most of these run on
hand-picked density/score arrays with explicit thresholds; the tests
that need real fitted models reuse the session-scoped quick-scale
reference artifacts (which carry both modalities).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learn.ensemble import (
    ENSEMBLE_RULES,
    MODALITIES,
    EnsembleConfig,
    allowed_false_positive_rate,
)
from repro.serve.worker import ShardWorker

pytestmark = [pytest.mark.contexts]


def calibrated_flags(config, densities, scores, p_percent):
    """Each channel's flags at its ``budgets`` share of ``p_percent``:
    densities flag below the MHM share's quantile, scores above the
    (100 - context share)-quantile."""
    mhm_p, context_p = config.budgets("ensemble", p_percent)
    theta_mhm = np.quantile(densities, mhm_p / 100.0)
    theta_context = np.quantile(scores, 1.0 - context_p / 100.0)
    return densities < theta_mhm, scores > theta_context


class TestBudgetMath:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("share", [0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_split_sums_exactly_to_total(self, p, share):
        mhm_p, context_p = EnsembleConfig(mhm_share=share).budgets(
            "ensemble", p
        )
        assert mhm_p + context_p == p

    def test_allowed_rate_formula(self):
        allowed = allowed_false_positive_rate(1.0, 400)
        expected = 0.01 + 2.0 * np.sqrt(0.01 * 0.99 / 400) + 1.0 / 400
        assert allowed == pytest.approx(expected)

    def test_allowed_rate_rejects_empty_window(self):
        with pytest.raises(ValueError, match="samples"):
            allowed_false_positive_rate(1.0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mhm_share": -0.5},
            {"mhm_share": 1.5},
            {"mhm_share": 0.0},
            {"mhm_share": 1.0},
            {"rule": "xor"},
            {"rule": "OR"},
            {"mhm_share": float("nan")},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleConfig(**kwargs)

    def test_config_carries_no_budget(self):
        # The budget is the caller's p; the config only splits it.
        with pytest.raises(TypeError):
            EnsembleConfig(p_percent=1.0)

    @pytest.mark.parametrize("p", [0.0, 100.0, float("nan")])
    @pytest.mark.parametrize("modality", MODALITIES)
    def test_bad_budget_rejected(self, modality, p):
        with pytest.raises(ValueError, match="p_percent"):
            EnsembleConfig().budgets(modality, p)

    def test_removed_weighted_rule_points_at_or(self):
        with pytest.raises(ValueError, match="removed") as excinfo:
            EnsembleConfig(rule="weighted")
        assert "'or'" in str(excinfo.value)

    @pytest.mark.parametrize("share", [0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_ensemble_budgets_are_the_exact_split(self, share):
        # The ensemble splits the p it is given: p x share, and the
        # subtraction complement for the context channel.
        assert EnsembleConfig(mhm_share=share).budgets("ensemble", 2.0) == (
            2.0 * share,
            2.0 - 2.0 * share,
        )

    def test_ensemble_splits_the_callers_p(self):
        assert EnsembleConfig().budgets("ensemble", 2.0) == (1.0, 1.0)
        assert EnsembleConfig().budgets("ensemble", 1.0) == (0.5, 0.5)

    @pytest.mark.parametrize("modality", ["mhm", "contexts"])
    def test_single_modality_budgets_spend_the_whole_p(self, modality):
        assert EnsembleConfig(mhm_share=0.3).budgets(modality, 2.0) == (
            2.0,
            2.0,
        )

    def test_unknown_modality_rejected(self):
        config = EnsembleConfig()
        with pytest.raises(ValueError, match="modality"):
            config.budgets("audio", 1.0)
        with pytest.raises(ValueError, match="modality"):
            config.verdict("audio", True, True)


class TestFusionRules:
    # theta_mhm=0 (flag density < 0), theta_context=1 (flag score > 1):
    # interval 0 is MHM-only, interval 1 context-only, interval 2 both,
    # interval 3 neither.
    DENSITIES = np.array([-1.0, 1.0, -1.0, 1.0])
    SCORES = np.array([0.1, 5.0, 5.0, 0.1])

    MHM_FLAGS = DENSITIES < 0.0
    CONTEXT_FLAGS = SCORES > 1.0

    def test_or_rule(self):
        fused = EnsembleConfig(rule="or").verdict(
            "ensemble", self.MHM_FLAGS, self.CONTEXT_FLAGS
        )
        np.testing.assert_array_equal(fused, [True, True, True, False])

    def test_and_rule(self):
        fused = EnsembleConfig(rule="and").verdict(
            "ensemble", self.MHM_FLAGS, self.CONTEXT_FLAGS
        )
        np.testing.assert_array_equal(fused, [False, False, True, False])

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig().verdict(
                "ensemble", self.MHM_FLAGS, self.CONTEXT_FLAGS[:2]
            )

    def test_rule_registry_is_exhaustive(self):
        assert ENSEMBLE_RULES == ("or", "and")
        assert MODALITIES == ("mhm", "contexts", "ensemble")

    @pytest.mark.parametrize(
        "config",
        [EnsembleConfig(rule=rule) for rule in ENSEMBLE_RULES],
        ids=ENSEMBLE_RULES,
    )
    def test_fuse_on_bools_matches_fuse_on_arrays(self, config):
        # The serving worker fuses one record's flags (bools, or numpy
        # bool scalars off a density comparison); the batch and CLI
        # paths fuse whole arrays.  Both must give the same verdicts.
        pairs = [(False, False), (False, True), (True, False), (True, True)]
        fused = config.fuse(
            np.array([m for m, _ in pairs]), np.array([c for _, c in pairs])
        )
        assert fused.dtype == bool
        for (mhm, context), expected in zip(pairs, fused):
            assert config.fuse(mhm, context) == expected
            assert config.fuse(np.bool_(mhm), context) == expected


    @pytest.mark.parametrize("rule", ENSEMBLE_RULES)
    @pytest.mark.parametrize("modality", MODALITIES)
    def test_verdict_matches_per_modality_expressions(self, modality, rule):
        # What the serving worker and `repro detect` each spelled out
        # inline before the decision moved into EnsembleConfig.verdict.
        def expected(mhm, context):
            if modality == "mhm":
                return mhm
            if modality == "contexts":
                return context
            return (mhm or context) if rule == "or" else (mhm and context)

        config = EnsembleConfig(rule=rule)
        pairs = [(False, False), (False, True), (True, False), (True, True)]
        for mhm, context in pairs:
            assert config.verdict(modality, mhm, context) == expected(
                mhm, context
            )
            assert config.verdict(
                modality, np.bool_(mhm), np.bool_(context)
            ) == expected(mhm, context)
        verdicts = config.verdict(
            modality,
            np.array([m for m, _ in pairs]),
            np.array([c for _, c in pairs]),
        )
        assert verdicts.dtype == bool
        np.testing.assert_array_equal(
            verdicts, [expected(m, c) for m, c in pairs]
        )

    def test_verdict_ignores_the_unscored_channel(self):
        config = EnsembleConfig()
        assert config.verdict("mhm", True, None) is True
        assert config.verdict("contexts", None, False) is False


class TestCalibrate:
    def test_calibrated_or_rate_stays_within_budget(self):
        rng = np.random.default_rng(0)
        densities = rng.normal(size=2000)
        scores = np.abs(rng.normal(size=2000))
        config = EnsembleConfig(mhm_share=0.5)
        fused = config.verdict(
            "ensemble", *calibrated_flags(config, densities, scores, 1.0)
        )
        assert float(fused.mean()) <= allowed_false_positive_rate(
            1.0, densities.size
        )

    def test_each_modality_respects_its_share(self):
        rng = np.random.default_rng(1)
        densities = rng.normal(size=1000)
        scores = np.abs(rng.normal(size=1000))
        config = EnsembleConfig(mhm_share=0.25)
        mhm, context = calibrated_flags(config, densities, scores, 2.0)
        mhm_p, context_p = config.budgets("ensemble", 2.0)
        slack = 1.0 / densities.size
        assert float(mhm.mean()) <= mhm_p / 100.0 + slack
        assert float(context.mean()) <= context_p / 100.0 + slack


def ensemble_worker(artifacts, p_percent=1.0, **config):
    """A worker judging one profile under the ensemble modality."""
    return ShardWorker(
        {"baseline": artifacts.detector},
        specs=[],
        p_percent=p_percent,
        modality="ensemble",
        context_detectors={"baseline": artifacts.context_detector},
        ensemble=EnsembleConfig(**config),
    )


class TestWithFittedModels:
    def test_default_thresholds_come_from_the_banks(self, quick_artifacts):
        worker = ensemble_worker(quick_artifacts)
        # The default split of p = 1 lands both budgets on the
        # calibrated 0.5 quantile of each bank.
        assert worker.thetas["baseline"] == (
            quick_artifacts.detector.threshold(0.5)
        )
        assert worker.context_thetas["baseline"] == (
            quick_artifacts.context_detector.threshold(0.5)
        )

    def test_worker_splits_its_own_budget(self, quick_artifacts):
        # p = 2 at share 0.5: both channels judge at the 1.0 banks.
        worker = ensemble_worker(quick_artifacts, p_percent=2.0)
        assert worker.thetas["baseline"] == (
            quick_artifacts.detector.threshold(1.0)
        )
        assert worker.context_thetas["baseline"] == (
            quick_artifacts.context_detector.threshold(1.0)
        )

    def test_uncalibrated_split_raises_keyerror(self, quick_artifacts):
        # 0.3 % is on neither bank; the CLI maps this KeyError to exit 2.
        with pytest.raises(KeyError):
            ensemble_worker(quick_artifacts, p_percent=1.0, mhm_share=0.3)

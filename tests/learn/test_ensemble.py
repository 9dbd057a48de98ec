"""EnsembleDetector unit tests: budget split, fusion rules, identity.

The combiner's contract is arithmetic, so most of these run on
hand-picked density/score arrays with explicit thresholds; the tests
that need real fitted models reuse the session-scoped quick-scale
reference artifacts (which now carry both modalities).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.learn.ensemble import (
    ENSEMBLE_RULES,
    MODALITIES,
    EnsembleConfig,
    EnsembleDetector,
    allowed_false_positive_rate,
)

pytestmark = [pytest.mark.contexts]


def hand_ensemble(rule: str = "or", **kwargs) -> EnsembleDetector:
    """An ensemble over explicit thresholds; no fitted models needed."""
    config = EnsembleConfig(rule=rule, **kwargs)
    return EnsembleDetector(
        None, None, config, theta_mhm=0.0, theta_context=1.0
    )


class TestBudgetMath:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("share", [0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_split_sums_exactly_to_total(self, p, share):
        config = EnsembleConfig(p_percent=p, mhm_share=share)
        assert config.p_mhm + config.p_context == p

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
            {"p_percent": 0.0},
            {"p_percent": 100.0},
            {"mhm_share": 0.0},
            {"mhm_share": 1.0},
            {"rule": "xor"},
            {"p_percent": float("nan")},
            {"mhm_share": float("nan")},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleConfig(**kwargs)

    def test_removed_weighted_rule_points_at_or(self):
        with pytest.raises(ValueError, match="removed") as excinfo:
            EnsembleConfig(rule="weighted")
        assert "'or'" in str(excinfo.value)

    @pytest.mark.parametrize("share", [0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_ensemble_budgets_are_the_exact_split(self, share):
        config = EnsembleConfig(p_percent=1.0, mhm_share=share)
        # The ensemble spends the config's own budget, whatever p the
        # caller passes for single-modality scoring.
        assert config.budgets("ensemble", 2.0) == (
            config.p_mhm,
            config.p_context,
        )

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

    def test_modality_flags(self):
        mhm, context = hand_ensemble().modality_flags(
            self.DENSITIES, self.SCORES
        )
        np.testing.assert_array_equal(mhm, [True, False, True, False])
        np.testing.assert_array_equal(context, [False, True, True, False])

    def test_or_rule(self):
        fused = hand_ensemble("or").classify(self.DENSITIES, self.SCORES)
        np.testing.assert_array_equal(fused, [True, True, True, False])

    def test_and_rule(self):
        fused = hand_ensemble("and").classify(self.DENSITIES, self.SCORES)
        np.testing.assert_array_equal(fused, [False, False, True, False])

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError, match="align"):
            hand_ensemble().modality_flags(self.DENSITIES, self.SCORES[:2])

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
        config = EnsembleConfig(p_percent=1.0, mhm_share=0.5)
        ensemble = EnsembleDetector.calibrate(
            None, None, densities, scores, config
        )
        fused = ensemble.classify(densities, scores)
        assert float(fused.mean()) <= allowed_false_positive_rate(
            config.p_percent, densities.size
        )

    def test_each_modality_respects_its_share(self):
        rng = np.random.default_rng(1)
        densities = rng.normal(size=1000)
        scores = np.abs(rng.normal(size=1000))
        config = EnsembleConfig(p_percent=2.0, mhm_share=0.25)
        ensemble = EnsembleDetector.calibrate(
            None, None, densities, scores, config
        )
        mhm, context = ensemble.modality_flags(densities, scores)
        slack = 1.0 / densities.size
        assert float(mhm.mean()) <= config.p_mhm / 100.0 + slack
        assert float(context.mean()) <= config.p_context / 100.0 + slack

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError, match="empty validation"):
            EnsembleDetector.calibrate(
                None, None, np.zeros(0), np.zeros(0)
            )


class TestWithFittedModels:
    def test_default_thresholds_come_from_the_banks(self, quick_artifacts):
        ensemble = EnsembleDetector(
            quick_artifacts.detector, quick_artifacts.context_detector
        )
        # Default split 1.0 x 0.5 lands both budgets on the calibrated
        # 0.5 quantile of each bank.
        assert ensemble.theta_mhm == quick_artifacts.detector.threshold(0.5)
        assert ensemble.theta_context == (
            quick_artifacts.context_detector.threshold(0.5)
        )

    def test_uncalibrated_split_raises_keyerror(self, quick_artifacts):
        with pytest.raises(KeyError):
            EnsembleDetector(
                quick_artifacts.detector,
                quick_artifacts.context_detector,
                EnsembleConfig(p_percent=1.0, mhm_share=0.3),
            )

    def test_fingerprint_stable_and_rule_sensitive(self, quick_artifacts):
        build = lambda rule: EnsembleDetector(
            quick_artifacts.detector,
            quick_artifacts.context_detector,
            EnsembleConfig(rule=rule),
        )
        assert build("or").fingerprint() == build("or").fingerprint()
        assert build("or").fingerprint() != build("and").fingerprint()

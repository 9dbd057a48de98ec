"""The attack × detector conformance matrix as a tested contract.

The tiny-sizing matrix is built once per module and interrogated:
every registered scenario must land exactly the outcome row its class
declares, with the two headline adversarial cells pinned explicitly —
slow-drift trips the drift monitor *without* a GMM alarm, and the SMM
shadow is the documented all-miss row.
"""

from __future__ import annotations

import pytest

import repro.conformance.matrix as matrix_mod
from repro.conformance.matrix import (
    CI_SIZING,
    DETECTOR_COLUMNS,
    OUTCOME_VOCABULARY,
    SIZINGS,
    TINY_SIZING,
    ConformanceMatrix,
    MatrixSizing,
    build_matrix,
    validate_declarations,
)
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.stages import SCENARIO_STAGE, SCENARIOS

pytestmark = [pytest.mark.conformance]


@pytest.fixture(scope="module")
def tiny_matrix() -> ConformanceMatrix:
    return build_matrix(TINY_SIZING)


class TestShape:
    def test_covers_the_full_registry(self, tiny_matrix):
        assert list(tiny_matrix.scenarios) == sorted(SCENARIOS)
        assert len(tiny_matrix.scenarios) >= 7
        assert list(tiny_matrix.detectors) == list(DETECTOR_COLUMNS)
        assert len(tiny_matrix.cells) == len(tiny_matrix.scenarios) * len(
            tiny_matrix.detectors
        )

    def test_every_observed_outcome_is_in_vocabulary(self, tiny_matrix):
        for cell in tiny_matrix.cells:
            assert cell.observed in OUTCOME_VOCABULARY[cell.detector]

    def test_cell_lookup(self, tiny_matrix):
        cell = tiny_matrix.cell("rootkit", "gmm-interval")
        assert cell.scenario == "rootkit"
        with pytest.raises(KeyError):
            tiny_matrix.cell("rootkit", "sixth-sense")


class TestConformance:
    def test_matrix_is_conformant(self, tiny_matrix):
        mismatched = [
            f"{c.scenario}×{c.detector}: expected {c.expected}, got {c.observed}"
            for c in tiny_matrix.mismatches()
        ]
        assert tiny_matrix.conformant, mismatched

    def test_slow_drift_flags_drift_without_gmm_alarm(self, tiny_matrix):
        """The tentpole cell: the alarm rule misses the ramp but the
        drift monitor catches the distribution shift."""
        assert tiny_matrix.cell("slow-drift", "gmm-alarm").observed == "miss"
        assert tiny_matrix.cell("slow-drift", "drift").observed == "drift-flag"
        metrics = tiny_matrix.cell("slow-drift", "drift").metrics
        assert metrics["observed_rate"] > metrics["expected_rate"]

    def test_smm_shadow_is_the_documented_known_miss(self, tiny_matrix):
        for column in DETECTOR_COLUMNS:
            cell = tiny_matrix.cell("smm-shadow", column)
            assert cell.matched, column
            assert cell.observed in ("miss", "no-drift", "within-budget")

    def test_mimicry_evades_every_gmm_column(self, tiny_matrix):
        assert tiny_matrix.cell("mimicry", "gmm-alarm").observed == "miss"
        assert tiny_matrix.cell("mimicry", "gmm-interval").observed == "miss"

    def test_loud_scenarios_detected_by_both_gmm_columns(self, tiny_matrix):
        for scenario in ("app-launch", "shellcode", "interrupt-storm"):
            assert tiny_matrix.cell(scenario, "gmm-alarm").observed == "detect"
            assert tiny_matrix.cell(scenario, "gmm-interval").observed == "detect"

    def test_every_boot_stays_inside_the_fpr_budget(self, tiny_matrix):
        for scenario in tiny_matrix.scenarios:
            assert tiny_matrix.cell(scenario, "fpr-budget").observed == (
                "within-budget"
            )


class TestDeterminism:
    def test_rebuild_is_bit_identical(self, tiny_matrix):
        again = build_matrix(TINY_SIZING)
        assert again.to_dict() == tiny_matrix.to_dict()
        assert again.digest() == tiny_matrix.digest()

    def test_scenario_stage_round_trips_through_the_cache(
        self, tiny_matrix, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        cold = build_matrix(TINY_SIZING, cache=cache)
        assert cache.session_misses[SCENARIO_STAGE] == len(SCENARIOS)
        assert SCENARIO_STAGE not in cache.session_hits
        warm = build_matrix(TINY_SIZING, cache=cache)
        assert cache.session_hits[SCENARIO_STAGE] == len(SCENARIOS)
        assert warm.to_json() == cold.to_json() == tiny_matrix.to_json()

    def test_json_roundtrip_is_canonical(self, tiny_matrix):
        import json

        payload = json.loads(tiny_matrix.to_json())
        assert payload == tiny_matrix.to_dict()

    def test_subset_rows_match_full_matrix(self, tiny_matrix):
        subset = build_matrix(TINY_SIZING, scenarios=["smm-shadow", "rootkit"])
        assert list(subset.scenarios) == ["rootkit", "smm-shadow"]
        for cell in subset.cells:
            full = tiny_matrix.cell(cell.scenario, cell.detector)
            assert cell.to_dict() == full.to_dict()


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_matrix(TINY_SIZING, scenarios=["nuke"])

    def test_registry_declarations_are_complete(self):
        validate_declarations(sorted(SCENARIOS))

    def test_missing_column_is_a_hard_error(self, monkeypatch):
        class Partial:
            expected_outcomes = {"gmm-alarm": "detect"}

        monkeypatch.setitem(matrix_mod.SCENARIOS, "partial", Partial)
        with pytest.raises(ValueError, match="declares no expected outcome"):
            validate_declarations(["partial"])

    def test_out_of_vocabulary_outcome_is_a_hard_error(self, monkeypatch):
        class Wrong:
            expected_outcomes = {
                "gmm-alarm": "explodes",
                "gmm-interval": "detect",
                "drift": "no-drift",
                "fpr-budget": "within-budget",
            }

        monkeypatch.setitem(matrix_mod.SCENARIOS, "wrong", Wrong)
        with pytest.raises(ValueError, match="legal outcomes"):
            validate_declarations(["wrong"])

    def test_unknown_column_is_a_hard_error(self, monkeypatch):
        class Extra:
            expected_outcomes = {
                "gmm-alarm": "detect",
                "gmm-interval": "detect",
                "drift": "drift-flag",
                "fpr-budget": "within-budget",
                "sixth-sense": "detect",
            }

        monkeypatch.setitem(matrix_mod.SCENARIOS, "extra", Extra)
        with pytest.raises(ValueError, match="unknown detector column"):
            validate_declarations(["extra"])

    def test_all_problems_reported_at_once(self, monkeypatch):
        class Bad:
            expected_outcomes = {"sixth-sense": "detect"}

        monkeypatch.setitem(matrix_mod.SCENARIOS, "bad", Bad)
        with pytest.raises(ValueError) as excinfo:
            validate_declarations(["bad"])
        message = str(excinfo.value)
        assert message.count("declares no expected outcome") == len(
            matrix_mod.OUTCOME_VOCABULARY
        )
        assert "unknown detector column" in message


class TestSizings:
    def test_registry(self):
        assert SIZINGS == {"tiny": TINY_SIZING, "ci": CI_SIZING}

    def test_drift_column_needs_enough_samples(self):
        with pytest.raises(ValueError, match="drift verdict"):
            MatrixSizing(
                name="thin",
                scale=TINY_SIZING.scale,
                pre_intervals=10,
                attack_intervals=10,
            )

    def test_pre_window_must_exist(self):
        with pytest.raises(ValueError, match="pre_intervals"):
            MatrixSizing(
                name="thin",
                scale=TINY_SIZING.scale,
                pre_intervals=0,
                attack_intervals=48,
            )

"""The corpus-wide attack contract, parametrized over every scenario.

Per-scenario suites (``test_rootkit.py`` & co.) pin scenario-specific
semantics; this module pins what *every* registered attack must honour
for the conformance matrix and the fleet simulator to stay sound:

* injection is deterministic — the same seed replays bit-identically;
* the scenario seed actually steers the trajectory;
* reversible attacks survive a full inject → revert → re-inject
  round-trip on a fresh platform (a ``DeviceStream`` reuses attack
  objects across device boots);
* every attack declares a complete, in-vocabulary expected-outcome row
  for the conformance matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import AttackError
from repro.conformance.matrix import DETECTOR_COLUMNS, OUTCOME_VOCABULARY
from repro.pipeline.scenario import ScenarioRunner
from repro.pipeline.stages import SCENARIOS, make_attack, scenario_reversible
from repro.sim.fleet import build_fleet_specs
from repro.sim.platform import Platform, PlatformConfig

ALL_SCENARIOS = sorted(SCENARIOS)

PRE, DURING, POST = 3, 5, 3


def _run(scenario: str, seed: int = 123, post: int = 0, attack=None):
    platform = Platform(PlatformConfig(seed=seed))
    attack = attack if attack is not None else make_attack(scenario)
    result = ScenarioRunner(platform).run(
        attack, pre_intervals=PRE, attack_intervals=DURING, post_intervals=post
    )
    return attack, result


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
class TestRegistry:
    def test_factory_builds_fresh_named_attacks(self, scenario):
        first, second = make_attack(scenario), make_attack(scenario)
        # Attack names elaborate on the registry key (e.g. "rootkit"
        # -> "rootkit-syscall-hijack") but always lead with it.
        assert first.name.startswith(scenario)
        assert first is not second

    def test_reversibility_helper_matches_attack(self, scenario):
        assert scenario_reversible(scenario) == make_attack(scenario).reversible

    def test_expected_outcomes_row_is_complete(self, scenario):
        declared = dict(SCENARIOS[scenario].expected_outcomes)
        assert set(declared) == set(DETECTOR_COLUMNS)
        for column, value in declared.items():
            assert value in OUTCOME_VOCABULARY[column], (scenario, column)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
class TestDeterminism:
    def test_injection_replays_bit_identically(self, scenario):
        _, first = _run(scenario)
        _, second = _run(scenario)
        np.testing.assert_array_equal(first.series.matrix(), second.series.matrix())
        assert [e.label for e in first.events] == [e.label for e in second.events]
        assert first.attack_interval == second.attack_interval

    def test_seed_steers_the_trajectory(self, scenario):
        _, a = _run(scenario, seed=123)
        _, b = _run(scenario, seed=124)
        assert not np.array_equal(a.series.matrix(), b.series.matrix())


@pytest.mark.parametrize(
    "scenario", [s for s in ALL_SCENARIOS if scenario_reversible(s)]
)
class TestRevertRoundTrip:
    def test_revert_then_reinject_is_bit_identical(self, scenario):
        """The fleet streams' contract: one attack object, many boots."""
        attack, first = _run(scenario, post=POST)
        assert first.revert_interval is not None
        # The same object re-runs on a fresh platform and reproduces
        # the first run exactly — no state leaks across the revert.
        _, second = _run(scenario, post=POST, attack=attack)
        np.testing.assert_array_equal(first.series.matrix(), second.series.matrix())

    def test_double_revert_rejected(self, scenario):
        attack, _ = _run(scenario, post=POST)
        with pytest.raises(AttackError):
            attack.revert(Platform(PlatformConfig(seed=5)))


class TestNonReversible:
    def test_shellcode_refuses_post_window(self):
        with pytest.raises(ValueError, match="not reversible"):
            _run("shellcode", post=POST)


class TestFleetIntegration:
    def test_specs_cycle_through_the_full_corpus(self):
        specs = build_fleet_specs(
            len(ALL_SCENARIOS),
            60,
            attacked_devices=len(ALL_SCENARIOS),
            attack_scenarios=tuple(ALL_SCENARIOS),
        )
        assert [s.scenario for s in specs] == ALL_SCENARIOS
        for spec in specs:
            assert spec.inject_interval is not None
            if scenario_reversible(spec.scenario):
                assert spec.revert_interval is not None
            else:
                assert spec.revert_interval is None

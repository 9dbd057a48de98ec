"""Unit and property tests of the fault-plan machinery itself.

The fault harness underwrites the runner's resilience guarantees, so
its own determinism contract — decisions pure in (seed, site, token) —
is tested here independently of the pipeline.
"""

from __future__ import annotations

import json
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.faults import FaultError, FaultPlan, FaultSpec, uniform_hash


class TestFaultSpecValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(mode="explode")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(mode="raise", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(mode="raise", probability=-0.1)

    def test_unknown_site_rejected_at_plan_construction(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(sites={"cache.reed": FaultSpec(mode="raise")})

    def test_retired_monitor_site_is_unknown(self):
        # The removed online monitor's per-interval site is gone: no
        # code checks it, so a plan naming it fails fast like any
        # unknown site (serve.score is the per-interval site).
        site = ".".join(("monitor", "verdict"))
        assert site not in faults.KNOWN_SITES
        assert "serve.score" in faults.KNOWN_SITES
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_dict({"sites": {site: {"mode": "corrupt"}}})


class TestDecisionDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        token=st.text(min_size=0, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_hash_is_pure_and_in_range(self, seed, token):
        u = uniform_hash(seed, "cache.read", token)
        assert 0.0 <= u < 1.0
        assert u == uniform_hash(seed, "cache.read", token)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        probability=st.floats(min_value=0.0, max_value=1.0),
        tokens=st.lists(st.text(max_size=12), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_plan_instances_agree_on_every_decision(
        self, seed, probability, tokens
    ):
        """The serial≡parallel foundation: independently constructed
        plans (as in separate worker processes) decide identically."""
        make = lambda: FaultPlan(
            sites={"runner.job": FaultSpec(mode="delay", probability=probability)},
            seed=seed,
        )
        one, two = make(), make()
        for token in tokens:
            assert one.would_fire("runner.job", token) == two.would_fire(
                "runner.job", token
            )

    def test_different_seeds_give_different_decisions(self):
        tokens = [f"job-{i}@0" for i in range(200)]
        fires = lambda seed: {
            t
            for t in tokens
            if FaultPlan(
                sites={"runner.job": FaultSpec(mode="raise", probability=0.5)},
                seed=seed,
            ).would_fire("runner.job", t)
        }
        assert fires(1) != fires(2)

    def test_probability_zero_and_one(self):
        plan = FaultPlan(
            sites={
                "cache.read": FaultSpec(mode="raise", probability=0.0),
                "cache.write": FaultSpec(mode="corrupt", probability=1.0),
            }
        )
        assert all(not plan.would_fire("cache.read", str(i)) for i in range(50))
        assert all(plan.would_fire("cache.write", str(i)) for i in range(50))

    def test_probability_roughly_calibrated(self):
        plan = FaultPlan(
            sites={"runner.job": FaultSpec(mode="raise", probability=0.2)}, seed=9
        )
        hits = sum(plan.would_fire("runner.job", str(i)) for i in range(2000))
        assert 0.15 < hits / 2000 < 0.25

    def test_match_filters_tokens(self):
        plan = FaultPlan(
            sites={"runner.job": FaultSpec(mode="raise", match="shellcode")}
        )
        assert plan.would_fire("runner.job", "shellcode-a@0")
        assert not plan.would_fire("runner.job", "rootkit-a@0")

    def test_max_triggers_caps_per_process_fires(self):
        plan = FaultPlan(
            sites={"cache.read": FaultSpec(mode="corrupt", max_triggers=2)}
        )
        fired = [plan.decide("cache.read", str(i)) is not None for i in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.fires == {"cache.read": 2}


class TestInstallAndCheck:
    def test_no_plan_is_a_noop(self):
        assert faults.active() is None
        assert faults.check("cache.read", token="x") is None

    def test_injected_scopes_and_restores(self):
        plan = FaultPlan(sites={"cache.read": FaultSpec(mode="corrupt")})
        with faults.injected(plan):
            assert faults.active() is plan
            assert faults.check("cache.read", token="x") is not None
        assert faults.active() is None

    def test_injected_none_passthrough(self):
        with faults.injected(None):
            assert faults.active() is None

    def test_raise_mode_raises_with_site(self):
        plan = FaultPlan(sites={"stages.fit": FaultSpec(mode="raise")})
        with faults.injected(plan):
            with pytest.raises(FaultError) as excinfo:
                faults.check("stages.fit", token="t")
        assert excinfo.value.site == "stages.fit"

    def test_delay_mode_sleeps(self):
        plan = FaultPlan(
            sites={"runner.job": FaultSpec(mode="delay", delay_seconds=0.05)}
        )
        with faults.injected(plan):
            started = time.monotonic()
            spec = faults.check("runner.job", token="t")
            elapsed = time.monotonic() - started
        assert spec is not None and elapsed >= 0.04

    def test_fired_faults_count_in_metrics(self):
        from repro import obs

        plan = FaultPlan(sites={"cache.read": FaultSpec(mode="corrupt")})
        with obs.observed() as (registry, _):
            with faults.injected(plan):
                faults.check("cache.read", token="a")
                faults.check("cache.read", token="b")
            snapshot = registry.snapshot()
        assert snapshot["faults.injected.cache.read"]["value"] == 2


class TestMangle:
    @given(data=st.binary(min_size=1, max_size=200), token=st.text(max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_corrupt_changes_exactly_one_bit_deterministically(self, data, token):
        spec = FaultSpec(mode="corrupt")
        one = faults.mangle(spec, data, "cache.read", token)
        two = faults.mangle(spec, data, "cache.read", token)
        assert one == two
        assert len(one) == len(data)
        diffs = [i for i, (a, b) in enumerate(zip(data, one)) if a != b]
        assert len(diffs) == 1
        assert (data[diffs[0]] ^ one[diffs[0]]) == 0x01

    @given(data=st.binary(min_size=2, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_truncate_halves(self, data):
        spec = FaultSpec(mode="truncate")
        assert faults.mangle(spec, data, "cache.write") == data[: len(data) // 2]

    def test_empty_payload_passthrough(self):
        assert faults.mangle(FaultSpec(mode="corrupt"), b"", "cache.read") == b""


class TestSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(
            sites={
                "cache.read": FaultSpec(mode="corrupt", probability=0.25),
                "runner.job": FaultSpec(
                    mode="delay", delay_seconds=0.5, match="@0", max_triggers=3
                ),
            },
            seed=42,
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.seed == plan.seed
        assert set(clone.sites) == set(plan.sites)
        for token in ("a@0", "b@0", "c@1"):
            for site in plan.sites:
                assert clone.would_fire(site, token) == plan.would_fire(site, token)

    def test_pickle_resets_per_process_fires(self):
        """Worker processes count their own triggers: the fires book
        never travels with the plan."""
        plan = FaultPlan(sites={"cache.read": FaultSpec(mode="corrupt")})
        plan.decide("cache.read", "x")
        clone = pickle.loads(pickle.dumps(plan))
        assert plan.fires == {"cache.read": 1}
        assert clone.fires == {}
        assert clone.sites == plan.sites

"""The bus-conformance oracle: the event bus ≡ the frozen lockstep goldens.

The serial lockstep loop was the serving layer's reference semantics
until the event bus became the only executor.  Before it was deleted,
its canonical fleet reports were frozen into
``tests/fixtures/golden_serve_tiny.json`` for the serve-suite fleet
(``conftest.base_config``) across shards {1, 2, 4} × modality
{mhm, ensemble} × fault plan {none, ``serve.score`` corrupt p=0.3,
``serve.score`` raise p=0.3}.  This suite is the contract the bus
keeps with them: at every shard count the canonical report
(per-device digest chains included) must match the golden **bit for
bit**.  The fixture is regenerated only for an intentional numerics
change, and reviewed like code::

    python -m pytest tests/serve/test_bus_conformance.py --update-goldens

Cadence and recalibration runs have no golden; for those the oracle
is bus-internal shard invariance plus spot-checked semantics.
"""

import dataclasses
import json
import pathlib

import pytest

from repro import faults
from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.serve import FleetService, health_summary

pytestmark = pytest.mark.bus

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_serve_tiny.json"
)

#: The fault plans the goldens cover, by name.
PLANS = {
    "none": None,
    "corrupt": {"serve.score": dict(probability=0.3, mode="corrupt")},
    "raise": {"serve.score": dict(probability=0.3, mode="raise")},
}


def _plan(name):
    sites = PLANS[name]
    if sites is None:
        return None
    return faults.FaultPlan(
        seed=5,
        sites={site: faults.FaultSpec(**spec) for site, spec in sites.items()},
    )


def _run(config, *, fault_plan=None, **overrides):
    return FleetService(
        dataclasses.replace(config, **overrides), fault_plan=fault_plan
    ).run()


def _canonical_json(report) -> str:
    # JSON text, not dicts: a NaN field compares equal to itself here.
    return json.dumps(report.canonical_dict(), sort_keys=True)


def _check_golden(base_config, update_goldens, modality, plan, shards):
    """Run one golden case and compare (or, on update, record) it.

    The goldens hold the default kernels backend's bits, so the run
    pins that backend (forked shard children inherit it).
    """
    with use_backend(DEFAULT_BACKEND):
        report = _run(
            base_config, fault_plan=_plan(plan), modality=modality, shards=shards
        )
    key = f"{modality}/{plan}/shards={shards}"
    goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if update_goldens:
        goldens[key] = report.canonical_dict()
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    assert key in goldens, (
        "serve golden missing — generate it with `pytest "
        "tests/serve/test_bus_conformance.py --update-goldens`"
    )
    assert _canonical_json(report) == json.dumps(goldens[key], sort_keys=True), (
        f"{key}: canonical report drifted from the frozen lockstep golden"
    )
    return report


class TestExecutorIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_async_matches_lockstep_bitwise(
        self, base_config, update_goldens, shards
    ):
        _check_golden(base_config, update_goldens, "mhm", "none", shards)

    def test_executor_is_recorded_but_not_digested(self, base_config):
        report = _run(base_config)
        assert report.executor == "async"
        # canonical_dict pops the executor field: the digests carry
        # the *scores*, not the machinery that produced them.
        assert "executor" not in report.canonical_dict()

    def test_async_ledger_is_clean(self, base_config):
        report = _run(base_config)
        assert report.emitted == report.scored
        assert report.dropped == 0 and report.skipped == 0
        assert report.bus["published"] >= report.emitted
        assert health_summary(report)["ready"] is True


class TestFaultedIdentity:
    @pytest.mark.parametrize("plan", ["corrupt", "raise"])
    def test_score_faults_identical_across_executors(
        self, base_config, update_goldens, plan
    ):
        for shards in (1, 2, 4):
            report = _check_golden(
                base_config, update_goldens, "mhm", plan, shards
            )
            assert report.skipped > 0  # the plan actually fired

    def test_skip_positions_are_batch_composition_independent(
        self, base_config
    ):
        """A skipped record must land at its own interval position in
        the digest chain, whatever batch it was scored in."""
        plan = _plan("corrupt")
        report = _run(base_config, fault_plan=plan, keep_densities=True)
        for entry in report.device_reports:
            expected_skips = [
                i
                for i in range(base_config.intervals)
                if plan.would_fire(
                    "serve.score", f"{entry.device_id}@{i}"
                )
            ]
            actual_skips = [
                i
                for i, density in enumerate(entry.log_densities)
                if density != density  # NaN
            ]
            assert actual_skips == expected_skips


class TestModalityAndDtypeIdentity:
    def test_ensemble_identical_across_executors(
        self, base_config, update_goldens
    ):
        for plan in ("none", "corrupt"):
            for shards in (1, 2, 4):
                _check_golden(
                    base_config, update_goldens, "ensemble", plan, shards
                )

    def test_float64_identical_across_executors(self, base_config):
        reference = _run(base_config)
        report = _run(base_config, shards=2)
        assert report.canonical_dict() == reference.canonical_dict()


class TestCadences:
    def test_cadence_run_is_shard_invariant(self, base_config):
        reference = _run(base_config, cadences=(1, 2), intervals=16)
        sharded = _run(base_config, cadences=(1, 2), intervals=16, shards=2)
        assert sharded.canonical_dict() == reference.canonical_dict()

    def test_cadence_emission_counts_and_health(self, base_config):
        report = _run(base_config, cadences=(1, 2), intervals=16)
        by_cadence = {}
        for entry in report.device_reports:
            by_cadence.setdefault(entry.cadence, []).append(entry.emitted)
        # Device i gets cadences[i % 2]: two full-rate, two half-rate.
        assert by_cadence == {1: [16, 16], 2: [8, 8]}
        assert report.emitted == 48
        summary = health_summary(report)
        assert summary["ready"] is True  # the complete check is
        # cadence-aware: 8 emitted records on a cadence-2 device is full

    def test_cadence_one_everywhere_matches_lockstep(self, base_config):
        """cadences=(1,) is the degenerate case: every device ticks
        every step, so the run must equal the cadence-free golden."""
        with use_backend(DEFAULT_BACKEND):
            report = _run(base_config, cadences=(1,))
        golden = json.loads(GOLDEN_PATH.read_text())["mhm/none/shards=1"]
        assert _canonical_json(report) == json.dumps(golden, sort_keys=True)

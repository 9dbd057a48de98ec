"""Golden fault-campaign fixture: the failure manifest is frozen too.

A fixed tiny grid is run under a fixed seeded :class:`FaultPlan`; the
resulting failure manifest — which jobs die, at which sites, after how
many attempts, how many retries the run costs, and the fingerprints of
the surviving results — is compared against a committed JSON fixture.
A change that silently shifts fault *decisions* (hash function, token
convention, retry accounting) or survivor *numerics* fails here first.

Regenerate after an intentional change::

    python -m pytest tests/pipeline/test_golden_faults.py --update-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.faults import FaultPlan
from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.pipeline.runner import ExperimentJob, ExperimentRunner, TrainSpec
from repro.sim.platform import PlatformConfig

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN_PATH = FIXTURES / "golden_faultplan_tiny.json"

#: The frozen campaign: four shellcode replicas under a mixed plan —
#: attempt-retryable job faults plus unconditional cache sabotage.
GOLDEN_GRID = [
    ExperimentJob(
        name=f"shellcode-g{i}",
        config=PlatformConfig(seed=7),
        train=TrainSpec(
            runs=1, intervals_per_run=20, validation_intervals=20, base_seed=700
        ),
        scenario="shellcode",
        detector_params=(("em_restarts", 1), ("seed", 0)),
        pre_intervals=4,
        attack_intervals=4,
        scenario_seed=170 + i,
    )
    for i in range(4)
]

GOLDEN_PLAN = {
    "seed": 11,
    "sites": {
        "runner.job": {"mode": "raise", "probability": 0.4},
        "stages.replay": {"mode": "raise", "probability": 0.2},
    },
}


def _campaign_payload() -> dict:
    runner = ExperimentRunner(
        jobs=1,
        use_cache=False,
        max_retries=1,
        backoff_base=0.01,
        fault_plan=FaultPlan.from_dict(GOLDEN_PLAN),
    )
    # The survivors' fingerprints are the default kernels backend's bits.
    with use_backend(DEFAULT_BACKEND):
        results = runner.run(GOLDEN_GRID)
    manifest = runner.failure_manifest()
    # Tracebacks carry absolute source paths — machine-specific, so
    # the frozen manifest keeps everything but them.
    for failure in manifest["failures"]:
        failure["traceback"] = "<elided>"
    return {
        "plan": GOLDEN_PLAN,
        "manifest": manifest,
        "survivors": {r.job.name: r.fingerprint() for r in results},
    }


@pytest.fixture(scope="module")
def payload() -> dict:
    return _campaign_payload()


def test_golden_fault_campaign(payload, update_goldens):
    if update_goldens:
        FIXTURES.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), (
        "golden fault fixture missing — generate it with "
        "`pytest tests/pipeline/test_golden_faults.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())

    assert payload["plan"] == golden["plan"], "the frozen plan itself changed"
    hint = (
        "fault decisions or retry accounting drifted; if intentional, "
        "rerun with --update-goldens"
    )
    manifest, frozen = payload["manifest"], golden["manifest"]
    assert manifest["failed"] == frozen["failed"], hint
    assert manifest["completed"] == frozen["completed"], hint
    assert manifest["retries"] == frozen["retries"], hint
    assert manifest["failures"] == frozen["failures"], hint
    assert manifest == frozen, hint
    assert payload["survivors"] == golden["survivors"], (
        "surviving results changed bit-for-bit; rerun with --update-goldens "
        "if the numeric change is intentional"
    )


def test_golden_campaign_kills_and_spares(payload):
    """Sanity on the fixture itself: the frozen plan must exercise both
    outcomes, or the golden pins nothing interesting."""
    manifest = payload["manifest"]
    assert manifest["failed"] >= 1
    assert manifest["completed"] >= 1
    assert manifest["retries"] >= 1


def test_golden_campaign_is_deterministic(payload):
    """A golden failure always means drift, not nondeterminism."""
    assert _campaign_payload() == payload

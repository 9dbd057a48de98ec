"""Golden regression tests: frozen detector parameters and verdicts.

One fixed scenario/seed is run end to end and compared against a
committed JSON fixture — detector shape, calibrated thresholds, GMM
weights, the scored density series and the per-interval verdicts.  A
refactor that silently drifts any numeric output of the pipeline fails
here first, with a precise diff of *what* moved.

When a change intentionally alters numerics (e.g. a new PCA solver),
regenerate the fixtures and review the diff like any other code
change::

    python -m pytest tests/pipeline/test_golden.py --update-goldens
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.pipeline.runner import ExperimentJob, TrainSpec, run_job
from repro.sim.platform import PlatformConfig

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

#: The frozen scenario: tiny but full-pipeline (simulate, PCA, GMM,
#: threshold calibration, attack replay, verdicts).
GOLDEN_JOB = ExperimentJob(
    name="golden-shellcode",
    config=PlatformConfig(seed=7),
    train=TrainSpec(runs=2, intervals_per_run=30, validation_intervals=30, base_seed=700),
    scenario="shellcode",
    detector_params=(("em_restarts", 1), ("seed", 0)),
    pre_intervals=8,
    attack_intervals=8,
    scenario_seed=77,
)

GOLDEN_PATH = FIXTURES / "golden_shellcode_tiny.json"

#: Matching tolerance for floating-point payloads.  The fixture is
#: generated on the same BLAS/numpy stack the tests run on, so exact
#: equality is expected; the epsilon only forgives JSON round-tripping.
ATOL = 0.0


def _golden_payload() -> dict:
    # The fixture holds the default kernels backend's bits.
    with use_backend(DEFAULT_BACKEND):
        result = run_job(GOLDEN_JOB, use_cache=False)
    return {
        "job": GOLDEN_JOB.name,
        "scenario": GOLDEN_JOB.scenario,
        "num_cells": result.num_cells,
        "num_eigenmemories": result.num_eigenmemories,
        "attack_interval": result.attack_interval,
        "gmm_weights": result.detector_arrays["gmm_weights"].tolist(),
        "pca_eigenvalues": result.detector_arrays["pca_eigenvalues"].tolist(),
        "log10_thresholds": {
            f"{q:g}": value for q, value in sorted(result.log10_thresholds.items())
        },
        "log10_densities": result.log10_densities.tolist(),
        "verdicts_theta_1": [int(v) for v in result.verdicts[1.0]],
        "fingerprint": result.fingerprint(),
    }


@pytest.fixture(scope="module")
def payload() -> dict:
    return _golden_payload()


def test_golden_shellcode(payload, update_goldens):
    if update_goldens:
        FIXTURES.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), (
        "golden fixture missing — generate it with "
        "`pytest tests/pipeline/test_golden.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())

    hint = "numerics drifted; if intentional, rerun with --update-goldens"
    assert payload["num_cells"] == golden["num_cells"], hint
    assert payload["num_eigenmemories"] == golden["num_eigenmemories"], hint
    assert payload["attack_interval"] == golden["attack_interval"], hint
    assert payload["verdicts_theta_1"] == golden["verdicts_theta_1"], hint
    np.testing.assert_allclose(
        payload["gmm_weights"], golden["gmm_weights"], rtol=0, atol=ATOL, err_msg=hint
    )
    np.testing.assert_allclose(
        payload["pca_eigenvalues"],
        golden["pca_eigenvalues"],
        rtol=0,
        atol=ATOL,
        err_msg=hint,
    )
    assert payload["log10_thresholds"] == golden["log10_thresholds"], hint
    np.testing.assert_allclose(
        payload["log10_densities"],
        golden["log10_densities"],
        rtol=0,
        atol=ATOL,
        err_msg=hint,
    )


def test_golden_fingerprint(payload, update_goldens):
    """The compact form of the same contract: one hash over detector
    parameters + densities + verdicts."""
    if update_goldens:
        pytest.skip("fixture being rewritten by test_golden_shellcode")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert payload["fingerprint"] == golden["fingerprint"], (
        "pipeline output changed bit-for-bit; rerun with --update-goldens "
        "if the change is intentional"
    )


def test_golden_job_is_deterministic(payload):
    """Guards the guard: re-running the golden job in-process yields
    the identical payload, so a golden failure always means drift in
    the code, not nondeterminism in the test."""
    again = _golden_payload()
    assert again == payload

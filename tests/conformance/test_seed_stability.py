"""Fresh-interpreter seed stability for the two-modality stack.

The repo's determinism claims are usually checked within one process;
this test closes the remaining gap by running the full pipeline —
training both modalities, fingerprinting both fitted models (the MHM
one with its θ bank), building the tiny conformance matrix — in **two separate interpreters with different
``PYTHONHASHSEED``** values and asserting the fingerprints and the
canonical matrix digest are byte-identical.  Anything that leaked set-
or dict-iteration order, ``id()``-keyed state or hash-dependent tie
breaking into the numerics would diverge here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = [pytest.mark.conformance, pytest.mark.contexts, pytest.mark.slow]

REPO_ROOT = Path(__file__).resolve().parents[2]

SNIPPET = """
import hashlib
import json

import numpy as np

from repro.conformance.matrix import build_matrix
from repro.pipeline.experiments import QUICK_SCALE, get_reference_artifacts

artifacts = get_reference_artifacts(QUICK_SCALE)
detector = artifacts.detector
mhm = hashlib.sha256()
arrays = detector.to_arrays()
for name in sorted(arrays):
    array = np.ascontiguousarray(arrays[name])
    mhm.update(f"{name}:{array.dtype}:{array.shape}".encode())
    mhm.update(array.tobytes())
for q in detector.thresholds.quantiles:
    mhm.update(f"theta_{q!r}={detector.threshold(q).hex()}".encode())
matrix = build_matrix()  # tiny sizing
print(json.dumps({
    "context_fingerprint": artifacts.context_detector.fingerprint(),
    "mhm_fingerprint": mhm.hexdigest(),
    "matrix_digest": matrix.digest(),
    "matrix_conformant": matrix.conformant,
}))
"""


SERVE_SNIPPET = """
import json
import sys

from repro.serve import FleetService, FleetTrainSpec, ServeConfig

config = ServeConfig(
    devices=4,
    shards=2,
    intervals=8,
    seed=11,
    attacked_devices=2,
    train=FleetTrainSpec(
        runs=1, intervals_per_run=40, validation_intervals=40, em_restarts=1
    ),
    cache_dir=sys.argv[1],
)
report = FleetService(config).run()
print(json.dumps({
    "fleet_digest": report.fleet_digest,
    "verdicts": report.verdict_sequences,
}))
"""


def _run_fresh_interpreter(
    hash_seed: str,
    snippet: str = SNIPPET,
    argv: tuple = (),
) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", snippet, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_fingerprints_and_matrix_digest_survive_interpreter_restart():
    first = _run_fresh_interpreter("0")
    second = _run_fresh_interpreter("20260808")
    assert first["matrix_conformant"] is True
    assert first == second


def test_fleet_digests_survive_interpreter_restart(tmp_path):
    """A tiny sharded fleet, scored through the fused path, produces
    byte-identical digests across interpreters with different hash
    seeds."""
    cache = str(tmp_path / "cache")
    first = _run_fresh_interpreter("0", snippet=SERVE_SNIPPET, argv=(cache,))
    second = _run_fresh_interpreter(
        "20260808", snippet=SERVE_SNIPPET, argv=(cache,)
    )
    assert first == second

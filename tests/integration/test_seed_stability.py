"""Seed stability: two fresh processes produce identical golden digests.

Flake hardening for the whole determinism story: hypothesis profiles
pin example generation, but the pipeline itself must also be free of
hidden process-level state (hash randomization, import order, BLAS
thread scheduling) that could make "the same seed" mean different
things in different runs.  This test executes the golden job in two
*fresh* interpreter processes — separate memory spaces, separate numpy
initialisation — and asserts their end-to-end fingerprints (a sha256
over detector arrays, the scored density series and every verdict) are
identical, and match the committed golden fixture.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

from repro.kernels import DEFAULT_BACKEND, ENV_VAR

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN_PATH = FIXTURES / "golden_shellcode_tiny.json"

#: Runs the golden job and prints its fingerprint — executed in a
#: subprocess so each run gets a fresh interpreter.
_SCRIPT = """
from tests.pipeline.test_golden import GOLDEN_JOB
from repro.pipeline.runner import run_job
print(run_job(GOLDEN_JOB, use_cache=False).fingerprint())
"""


def _fresh_run_fingerprint(extra_env: dict) -> str:
    import os

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env.update(extra_env)
    repo_root = pathlib.Path(__file__).parent.parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
        check=True,
    )
    return result.stdout.strip().splitlines()[-1]


def test_two_fresh_runs_produce_identical_digests():
    # Different PYTHONHASHSEED per run: the pipeline must not depend
    # on dict/string hashing order anywhere.
    first = _fresh_run_fingerprint({"PYTHONHASHSEED": "1"})
    second = _fresh_run_fingerprint({"PYTHONHASHSEED": "2"})
    assert first == second
    assert len(first) == 64


def test_fresh_run_matches_committed_golden_fixture():
    # The fixture holds the default backend's bits; the child must not
    # inherit another backend from REPRO_KERNELS.
    committed = json.loads(GOLDEN_PATH.read_text())["fingerprint"]
    fingerprint = _fresh_run_fingerprint(
        {"PYTHONHASHSEED": "3", ENV_VAR: DEFAULT_BACKEND}
    )
    assert fingerprint == committed

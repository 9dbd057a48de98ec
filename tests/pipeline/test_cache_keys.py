"""Pinned artifact-cache keys of the three training-set builders.

``ArtifactCache.key(stage, material)`` names an on-disk entry, so a
refactor that changes the material a builder hands the cache silently
turns every warm cache cold (perfbench ``prepare``, CI's cold/warm
``repro matrix`` runs).  These pins record the exact keys that
:func:`run_job`, :func:`get_reference_artifacts` and
:class:`DetectorRegistry` fetch, per stage, against a cold cache.
A change that moves one of them must say why.  The fitted-detector
keys include the kernels backend, so the pins run under the default.
"""

from __future__ import annotations

import pytest

from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.experiments import QUICK_SCALE, get_reference_artifacts
from repro.pipeline.runner import run_job
from repro.serve.registry import DetectorRegistry
from tests.pipeline.test_runner_determinism import _tiny_grid

RUN_JOB_KEYS = {
    "training": {"1be188e75ac463d9f91291e3bc4e863a0b98850127c22059d59adfd75d77680b"},
    "detector": {"261b2acf9a7285f49005df948f2274dcf0aade817be35ef105188a68dda9a6be"},
    "scenario": {"735127c808d6707c9a7124487addcd3d2fe478161ec94ed45c143d25647fd2dd"},
}
REFERENCE_KEYS = {
    "training": {"372dfdbf69603fdaebc3b27ea4a3762e3dfb6a3d8ef6861fe15beb1df93fd917"},
    "detector": {"ebde2fcdd3504badc454d3bf296d41827f7212cab81e616c95885b71aa7305f8"},
    "context": {"f80c7f14dd0ac9113793986dcd83dda74a68951d928ff7e9c4c083d480cc2209"},
}
REGISTRY_KEYS = {
    "training": {"4ee5c9a366ce822a412927053e999c722535518d5d38af3ff1d41c3fb5b4d124"},
    "detector": {"893f02c494958f7e7c1309ec4a1821b6b115f1218e3738c12f158dc538b7b68b"},
    "context": {"541c5b03f300b8989fdeec4042bbf55fbcc4f9e6d9115ad84e714d46a6b92269"},
}


@pytest.fixture()
def fetched_keys(monkeypatch):
    """Every ``(stage, key)`` the cache is asked for, by stage."""
    keys: dict = {}
    fetch = ArtifactCache.fetch

    def recording_fetch(self, stage, material, compute):
        keys.setdefault(stage, set()).add(self.key(stage, material))
        return fetch(self, stage, material, compute)

    monkeypatch.setattr(ArtifactCache, "fetch", recording_fetch)
    with use_backend(DEFAULT_BACKEND):
        yield keys


def test_run_job_keys(fetched_keys, tmp_path):
    run_job(_tiny_grid()[0], cache_dir=str(tmp_path))
    assert fetched_keys == RUN_JOB_KEYS


def test_reference_artifact_keys(fetched_keys, tmp_path):
    get_reference_artifacts(
        QUICK_SCALE, use_cache=False, cache=ArtifactCache(tmp_path)
    )
    assert fetched_keys == REFERENCE_KEYS


def test_registry_keys(fetched_keys, tmp_path):
    registry = DetectorRegistry(root_seed=0, cache=ArtifactCache(tmp_path))
    registry.detector_for("baseline")
    registry.context_detector_for("baseline")
    assert fetched_keys == REGISTRY_KEYS

"""Robustness tests for the content-addressed artifact cache.

The cache must never turn corruption into a crash or a wrong answer:
a damaged entry is a *miss* (recompute and rewrite), concurrent
writers racing on one key can never interleave bytes, and ``clear``
removes only our namespace — even inside a shared cache root.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.kernels import BACKENDS, use_backend
from repro.pipeline.cache import (
    CACHE_NAMESPACE,
    ArtifactCache,
    default_cache_root,
)
from repro.pipeline.stages import CONTEXT_STAGE, DETECTOR_STAGE, fit_material

STAGE = "unit"


@pytest.fixture()
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


def _arrays(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "matrix": rng.standard_normal((4, 6)),
        "counts": rng.integers(0, 100, size=8),
    }


class TestRoundTrip:
    def test_put_get(self, cache):
        arrays = _arrays()
        key = cache.key(STAGE, {"seed": 1})
        cache.put(STAGE, key, arrays)
        loaded = cache.get(STAGE, key)
        assert loaded is not None
        for name, value in arrays.items():
            np.testing.assert_array_equal(loaded[name], value)
            assert loaded[name].dtype == value.dtype

    def test_miss_on_unknown_key(self, cache):
        assert cache.get(STAGE, cache.key(STAGE, {"seed": 99})) is None
        assert cache.session_misses == {STAGE: 1}

    def test_fetch_memoises(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return _arrays()

        first, hit1 = cache.fetch(STAGE, {"seed": 3}, compute)
        second, hit2 = cache.fetch(STAGE, {"seed": 3}, compute)
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["matrix"], second["matrix"])


class TestKeys:
    def test_stable(self, cache):
        assert cache.key(STAGE, {"a": 1, "b": (2, 3)}) == cache.key(
            STAGE, {"a": 1, "b": (2, 3)}
        )

    def test_sensitive_to_material_stage_and_version(self, cache, monkeypatch):
        base = cache.key(STAGE, {"seed": 1})
        assert cache.key(STAGE, {"seed": 2}) != base
        assert cache.key("other-stage", {"seed": 1}) != base
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert cache.key(STAGE, {"seed": 1}) != base

    def test_config_dataclasses_are_hashable_material(self, cache):
        from repro.sim.platform import PlatformConfig

        one = cache.key(STAGE, {"config": PlatformConfig(seed=1)})
        two = cache.key(STAGE, {"config": PlatformConfig(seed=2)})
        assert one != two
        assert one == cache.key(STAGE, {"config": PlatformConfig(seed=1)})


class TestFitMaterial:
    """The fitted-detector cache keys, pinned to the dicts users' caches
    were written under: any change to them re-fits every detector."""

    TRAIN = {"config": "cfg", "runs": 2, "base_seed": 7}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_both_stages_keep_their_material(self, backend):
        detector_kwargs = {"num_gaussians": 5, "em_restarts": 3, "seed": 1}
        context_kwargs = {"seed": 1}
        with use_backend(backend):
            assert fit_material(
                DETECTOR_STAGE, self.TRAIN, detector_kwargs
            ) == {
                "train": self.TRAIN,
                "detector": detector_kwargs,
                "kernels_backend": backend,
            }
            assert fit_material(CONTEXT_STAGE, self.TRAIN, context_kwargs) == {
                "train": self.TRAIN,
                "context": context_kwargs,
                "kernels_backend": backend,
            }


class TestCorruption:
    """A damaged entry falls back to recompute — never a crash."""

    def _entry(self, cache):
        key = cache.key(STAGE, {"seed": 5})
        path = cache.put(STAGE, key, _arrays())
        return key, path

    def test_truncated_entry_is_a_miss_and_removed(self, cache):
        key, path = self._entry(cache)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get(STAGE, key) is None
        assert not path.exists()

    def test_bitflip_is_a_miss(self, cache):
        key, path = self._entry(cache)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get(STAGE, key) is None

    def test_foreign_file_is_a_miss(self, cache):
        key, path = self._entry(cache)
        path.write_bytes(b"not a cache entry at all")
        assert cache.get(STAGE, key) is None

    def test_empty_file_is_a_miss(self, cache):
        key, path = self._entry(cache)
        path.write_bytes(b"")
        assert cache.get(STAGE, key) is None

    def test_fetch_recomputes_after_corruption(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return _arrays(7)

        _, hit = cache.fetch(STAGE, {"seed": 7}, compute)
        assert not hit
        path = cache.entry_path(STAGE, cache.key(STAGE, {"seed": 7}))
        path.write_bytes(b"garbage")
        arrays, hit = cache.fetch(STAGE, {"seed": 7}, compute)
        assert not hit and len(calls) == 2
        np.testing.assert_array_equal(arrays["matrix"], _arrays(7)["matrix"])
        # ... and the rewritten entry is valid again.
        _, hit = cache.fetch(STAGE, {"seed": 7}, compute)
        assert hit


class TestAtomicity:
    def test_concurrent_writers_never_interleave(self, cache):
        """Many threads racing on one key: every read sees a complete,
        checksum-valid entry (tmp file + atomic rename)."""
        key = cache.key(STAGE, {"seed": 11})
        errors = []

        def writer(thread_seed: int):
            try:
                for _ in range(10):
                    cache.put(STAGE, key, _arrays(thread_seed))
                    loaded = ArtifactCache(cache.root).get(STAGE, key)
                    assert loaded is not None, "reader saw a torn entry"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # The winning entry decodes, and no temp files linger.
        assert cache.get(STAGE, key) is not None
        assert list(cache.dir.rglob("*.tmp")) == []


class TestMaintenance:
    def test_clear_removes_only_our_namespace(self, cache):
        cache.put(STAGE, cache.key(STAGE, {"seed": 1}), _arrays())
        foreign = cache.root / "someone-elses-file.txt"
        foreign.write_text("keep me")
        removed = cache.clear()
        assert removed == 1
        assert foreign.exists()
        assert not (cache.root / CACHE_NAMESPACE).exists()
        assert cache.stats()["entries"] == 0

    def test_stats_counts_entries_and_bytes(self, cache):
        for seed in range(3):
            cache.put(STAGE, cache.key(STAGE, {"seed": seed}), _arrays(seed))
        cache.put("other", cache.key("other", {"seed": 0}), _arrays())
        stats = cache.stats()
        assert stats["stages"][STAGE]["entries"] == 3
        assert stats["stages"]["other"]["entries"] == 1
        assert stats["entries"] == 4
        assert stats["bytes"] > 0

    def test_session_hit_miss_accounting(self, cache):
        key = cache.key(STAGE, {"seed": 1})
        cache.get(STAGE, key)
        cache.put(STAGE, key, _arrays())
        cache.get(STAGE, key)
        cache.get(STAGE, key)
        assert cache.session_misses == {STAGE: 1}
        assert cache.session_hits == {STAGE: 2}


class TestDefaultRoot:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        assert default_cache_root() == tmp_path / "via-env"
        assert ArtifactCache().root == tmp_path / "via-env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_root() == tmp_path / "xdg" / "repro"

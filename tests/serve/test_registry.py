"""DetectorRegistry: memoisation, cache round-trips, payload hand-off."""

import numpy as np

from repro.pipeline import stages
from repro.pipeline.cache import ArtifactCache
from repro.serve.registry import DetectorRegistry, FleetTrainSpec, _profile_seeds
from repro.sim.fleet import PROFILES
from tests.serve.conftest import TINY_TRAIN


class TestProfileSeeds:
    def test_deterministic(self):
        assert _profile_seeds(7, "baseline") == _profile_seeds(7, "baseline")

    def test_profiles_independent(self):
        assert _profile_seeds(7, "baseline") != _profile_seeds(7, "rtos")

    def test_root_seed_matters(self):
        assert _profile_seeds(7, "baseline") != _profile_seeds(8, "baseline")


class TestRegistry:
    def test_memoises_per_profile(self, serve_cache):
        registry = DetectorRegistry(root_seed=3, train=TINY_TRAIN, cache=serve_cache)
        first = registry.detector_for("baseline")
        assert registry.detector_for("baseline") is first
        assert first.is_fitted

    def test_cache_round_trip_bit_identical(self, serve_cache):
        cold = DetectorRegistry(root_seed=3, train=TINY_TRAIN, cache=serve_cache)
        warm = DetectorRegistry(root_seed=3, train=TINY_TRAIN, cache=serve_cache)
        a = cold.detector_for("baseline").to_arrays()
        b = warm.detector_for("baseline").to_arrays()
        assert warm.cache_hits > 0
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_uncached_training_works(self):
        registry = DetectorRegistry(root_seed=3, train=TINY_TRAIN, cache=None)
        assert registry.detector_for("baseline").is_fitted

    def test_uncached_ensemble_collects_each_training_set_once(
        self, monkeypatch, tmp_path
    ):
        """Without a cache both fit stages share one collected training
        set per profile, and the payload equals a cold-cache one."""
        calls = []
        collect = stages.collect_training_data

        def counting(*args, **kwargs):
            calls.append(kwargs["base_seed"])
            return collect(*args, **kwargs)

        monkeypatch.setattr(stages, "collect_training_data", counting)
        profiles = sorted(PROFILES)[:3]
        uncached = DetectorRegistry(root_seed=5, train=TINY_TRAIN, cache=None)
        payload = uncached.fleet_payload(profiles, modality="ensemble")
        assert len(calls) == len(set(calls)) == 3
        cold = DetectorRegistry(
            root_seed=5, train=TINY_TRAIN, cache=ArtifactCache(tmp_path)
        ).fleet_payload(profiles, modality="ensemble")
        assert payload.keys() == cold.keys()
        for profile, bundle in payload.items():
            for model in ("detector", "context"):
                got, want = bundle[model], cold[profile][model]
                assert got.keys() == want.keys()
                for key in got:
                    np.testing.assert_array_equal(got[key], want[key], strict=True)

    def test_payload_round_trip_scores_bit_identically(self, serve_cache, rng):
        registry = DetectorRegistry(root_seed=3, train=TINY_TRAIN, cache=serve_cache)
        payload = registry.fleet_payload(["baseline", "baseline"])
        assert set(payload) == {"baseline"}
        detectors, contexts = DetectorRegistry.from_fleet_payload(payload)
        assert contexts is None
        rebuilt = detectors["baseline"]
        original = registry.detector_for("baseline")
        spec = original.eigenmemory.mean_.shape[0]
        batch = rng.uniform(0, 50, size=(5, spec))
        np.testing.assert_array_equal(
            original.score_series(batch), rebuilt.score_series(batch)
        )
        assert rebuilt.threshold(1.0) == original.threshold(1.0)


class TestFleetTrainSpecValidation:
    def test_rejects_empty_training(self):
        for bad in (
            dict(runs=0),
            dict(intervals_per_run=0),
            dict(validation_intervals=0),
        ):
            try:
                FleetTrainSpec(**bad)
            except ValueError:
                continue
            raise AssertionError(f"{bad} should have been rejected")

"""Determinism guarantees of the parallel experiment runner.

The runner's contract: serial execution, parallel execution
(``--jobs 4``), and cache-warm re-execution of the same grid produce
**bit-identical** detector parameters, density series and verdicts.
Per-job seeds derive from ``SeedSequence.spawn`` at grid-build time,
so they are a pure function of the root seed and the job's grid
position — independent of worker count and scheduling order.

The grid here is deliberately tiny (a fraction of QUICK_SCALE): the
point is equality across execution strategies, not detection quality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.pipeline.runner import (
    ExperimentJob,
    ExperimentRunner,
    TrainSpec,
    build_grid_jobs,
    expand_grid,
)
from repro.pipeline.stages import collect_training_data_cached
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.experiments import QUICK_SCALE
from repro.sim.platform import PlatformConfig

TINY_TRAIN = TrainSpec(
    runs=2, intervals_per_run=30, validation_intervals=30, base_seed=700
)


def _tiny_grid() -> list:
    detector = (("em_restarts", 1), ("seed", 0))
    return [
        ExperimentJob(
            name="shellcode-tiny",
            config=PlatformConfig(seed=7),
            train=TINY_TRAIN,
            scenario="shellcode",
            detector_params=detector,
            pre_intervals=8,
            attack_intervals=8,
            scenario_seed=77,
        ),
        ExperimentJob(
            name="app-launch-tiny",
            config=PlatformConfig(seed=7),
            train=TINY_TRAIN,
            scenario="app-launch",
            detector_params=detector,
            pre_intervals=8,
            attack_intervals=8,
            post_intervals=4,
            scenario_seed=78,
        ),
    ]


def _assert_bit_identical(left, right) -> None:
    """Every numeric artifact of two runs matches bit for bit."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.job.name == b.job.name
        # MHM-derived detector parameters: PCA basis, GMM parameters,
        # calibrated thresholds.
        assert sorted(a.detector_arrays) == sorted(b.detector_arrays)
        for name in a.detector_arrays:
            np.testing.assert_array_equal(
                a.detector_arrays[name], b.detector_arrays[name], strict=True
            )
        # Scored series and verdicts.
        np.testing.assert_array_equal(a.log10_densities, b.log10_densities, strict=True)
        assert a.log10_thresholds == b.log10_thresholds
        assert sorted(a.verdicts) == sorted(b.verdicts)
        for quantile in a.verdicts:
            np.testing.assert_array_equal(
                a.verdicts[quantile], b.verdicts[quantile], strict=True
            )
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)
        assert a.fingerprint() == b.fingerprint()


@pytest.fixture(scope="module")
def serial_results():
    return ExperimentRunner(jobs=1, use_cache=False).run(_tiny_grid())


class TestParallelEquivalence:
    def test_jobs_4_matches_serial(self, serial_results):
        parallel = ExperimentRunner(jobs=4, use_cache=False).run(_tiny_grid())
        _assert_bit_identical(serial_results, parallel)

    def test_worker_count_independence(self, serial_results):
        two = ExperimentRunner(jobs=2, use_cache=False).run(_tiny_grid())
        _assert_bit_identical(serial_results, two)

    def test_results_in_job_order(self, serial_results):
        names = [r.job.name for r in serial_results]
        assert names == [j.name for j in _tiny_grid()]

    def test_no_cache_counts_no_hits_or_misses(self, serial_results):
        """With the cache off there is nothing to hit or miss; every
        stage is still computed and timed."""
        for result in serial_results:
            assert result.cache_hits == {}
            assert result.cache_misses == {}
            assert set(result.computed_stages) == {
                "training",
                "detector",
                "scenario",
            }
            assert set(result.stage_seconds) == {
                "training",
                "detector",
                "scenario",
                "score",
            }


class TestStageTimers:
    def test_serial_and_parallel_time_each_stage_once_per_job(self):
        """``ExperimentRunner.run`` is the one recorder of the per-stage
        timers, whichever process ran the job."""
        stages = ("training", "detector", "scenario", "score")
        counts = []
        for jobs in (1, 2):
            with obs.observed() as (registry, _):
                ExperimentRunner(jobs=jobs, use_cache=False).run(_tiny_grid())
                counts.append(
                    {s: registry.timer(f"runner.stage.{s}").count for s in stages}
                )
        assert counts[0] == counts[1] == dict.fromkeys(stages, 2)


class TestCacheEquivalence:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("runner-cache")

    @pytest.fixture(scope="class")
    def cold_results(self, cache_dir):
        return ExperimentRunner(jobs=1, cache_dir=cache_dir).run(_tiny_grid())

    def test_cold_run_matches_uncached(self, serial_results, cold_results):
        _assert_bit_identical(serial_results, cold_results)

    def test_warm_rerun_bit_identical_and_skips_stages(
        self, serial_results, cold_results, cache_dir
    ):
        warm = ExperimentRunner(jobs=1, cache_dir=cache_dir).run(_tiny_grid())
        _assert_bit_identical(serial_results, warm)
        # The cold run computed every stage at least once (the second
        # job legitimately reuses the first job's detector entry — the
        # grid shares one training spec); the warm one computed none.
        assert set(cold_results[0].computed_stages) == {
            "training",
            "detector",
            "scenario",
        }
        for result in cold_results:
            assert "scenario" in result.computed_stages
        # Cold compute time of the one job that actually trained.
        trained_seconds = cold_results[0].stage_seconds["detector"]
        for result in warm:
            assert result.computed_stages == ()
            assert sum(result.cache_hits.values()) > 0
            assert sum(result.cache_misses.values()) == 0
            # Simulation/training skipped: the warm "stage" is just an
            # entry load, far below the cold training compute.
            assert result.stage_seconds["detector"] < trained_seconds / 2
            assert "training" not in result.stage_seconds  # never entered

    def test_warm_parallel_matches_too(self, serial_results, cold_results, cache_dir):
        warm = ExperimentRunner(jobs=4, cache_dir=cache_dir).run(_tiny_grid())
        _assert_bit_identical(serial_results, warm)


class TestTrainingDataRoundTrip:
    def test_cached_mhm_traces_bit_identical(self, tmp_path):
        """The MHM matrices that come back from the cache equal the
        freshly simulated ones exactly (int64 counts, no quantisation)."""
        config = PlatformConfig(seed=7)
        train = TrainSpec(
            runs=2, intervals_per_run=20, validation_intervals=15, base_seed=300
        )
        fresh, fresh_hit = collect_training_data_cached(config, train, cache=None)
        cache = ArtifactCache(tmp_path)
        cold, cold_hit = collect_training_data_cached(config, train, cache=cache)
        warm, warm_hit = collect_training_data_cached(config, train, cache=cache)
        assert (fresh_hit, cold_hit, warm_hit) == (False, False, True)
        for data in (cold, warm):
            np.testing.assert_array_equal(
                fresh.training.matrix(np.int64),
                data.training.matrix(np.int64),
                strict=True,
            )
            np.testing.assert_array_equal(
                fresh.validation.matrix(np.int64),
                data.validation.matrix(np.int64),
                strict=True,
            )
            assert [m.interval_index for m in fresh.training] == [
                m.interval_index for m in data.training
            ]


class TestSeedDerivation:
    def test_grid_seeds_reproducible(self):
        one = build_grid_jobs(["shellcode", "rootkit"], QUICK_SCALE, root_seed=5)
        two = build_grid_jobs(["shellcode", "rootkit"], QUICK_SCALE, root_seed=5)
        assert one == two

    def test_root_seed_changes_every_job_seed(self):
        one = build_grid_jobs(["shellcode"], QUICK_SCALE, root_seed=5)
        two = build_grid_jobs(["shellcode"], QUICK_SCALE, root_seed=6)
        assert one[0].train.base_seed != two[0].train.base_seed
        assert one[0].scenario_seed != two[0].scenario_seed

    def test_seeds_stable_under_grid_growth(self):
        """SeedSequence.spawn children are indexed, so adding replicas
        or scenarios never changes the seeds of earlier cells."""
        small = build_grid_jobs(["shellcode"], QUICK_SCALE, root_seed=0, replicas=1)
        large = build_grid_jobs(["shellcode"], QUICK_SCALE, root_seed=0, replicas=3)
        assert small[0].scenario_seed == large[0].scenario_seed
        assert small[0].train == large[0].train

    def test_replicas_get_distinct_scenario_seeds(self):
        jobs = build_grid_jobs(["shellcode"], QUICK_SCALE, root_seed=0, replicas=4)
        seeds = [j.scenario_seed for j in jobs]
        assert len(set(seeds)) == len(seeds)
        # ... but share one detector (same training spec + seed).
        assert len({j.train for j in jobs}) == 1
        assert len({j.detector_params for j in jobs}) == 1

    def test_config_points_get_distinct_training_seeds(self):
        jobs = build_grid_jobs(
            ["shellcode"],
            QUICK_SCALE,
            root_seed=0,
            config_axes={"granularity": [2048, 4096, 8192]},
        )
        assert len({j.train.base_seed for j in jobs}) == 3


class TestExpandGrid:
    def test_empty(self):
        assert expand_grid({}) == [{}]

    def test_deterministic_order(self):
        grid = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert grid == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

"""Hardened-runner behaviour: retries, timeouts, crashes, degradation.

The regression this file exists for: **one failed job used to abort
the whole grid** (the runner re-raised out of its result loop).  The
hardened contract is graceful degradation — completed results come
back, the failure lands in the manifest, and only ``fail_fast=True``
restores raise-on-first-failure semantics.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.pipeline.runner import (
    ExperimentJob,
    ExperimentRunner,
    JobFailedError,
    TrainSpec,
)
from repro.sim.platform import PlatformConfig

TINY_TRAIN = TrainSpec(
    runs=1, intervals_per_run=20, validation_intervals=20, base_seed=700
)


def _grid(n: int = 3) -> list:
    return [
        ExperimentJob(
            name=f"shellcode-t{i}",
            config=PlatformConfig(seed=7),
            train=TINY_TRAIN,
            scenario="shellcode",
            detector_params=(("em_restarts", 1), ("seed", 0)),
            pre_intervals=4,
            attack_intervals=4,
            scenario_seed=70 + i,
        )
        for i in range(n)
    ]


def _kill_plan(job_name: str) -> FaultPlan:
    """A plan that permanently fails exactly one named job (every
    attempt: ``match`` selects on the job-name prefix of the token)."""
    return FaultPlan(
        sites={"runner.job": FaultSpec(mode="raise", match=f"{job_name}@")}
    )


class TestGracefulDegradation:
    def test_one_failed_job_no_longer_aborts_the_grid(self):
        """The headline regression: jobs t0 and t2 must come back even
        though t1 dies on every attempt."""
        runner = ExperimentRunner(
            jobs=1,
            use_cache=False,
            max_retries=1,
            backoff_base=0.01,
            fault_plan=_kill_plan("shellcode-t1"),
        )
        results = runner.run(_grid())
        assert [r.job.name for r in results] == ["shellcode-t0", "shellcode-t2"]
        assert [f.job_name for f in runner.job_failures] == ["shellcode-t1"]
        failure = runner.job_failures[0]
        assert failure.job_index == 1
        assert failure.attempts == 2  # initial + 1 retry
        assert failure.error_type == "FaultError"
        assert failure.site == "runner.job"

    def test_parallel_grid_degrades_identically(self):
        serial = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=0,
            fault_plan=_kill_plan("shellcode-t1"),
        )
        serial.run(_grid())
        parallel = ExperimentRunner(
            jobs=3, use_cache=False, max_retries=0,
            fault_plan=_kill_plan("shellcode-t1"),
        )
        parallel.run(_grid())
        assert serial.failure_manifest() == parallel.failure_manifest()

    def test_manifest_shape(self):
        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=1, backoff_base=0.01,
            fault_plan=_kill_plan("shellcode-t0"),
        )
        runner.run(_grid(2))
        manifest = runner.failure_manifest()
        assert manifest["schema"] == 1
        assert manifest["total_jobs"] == 2
        assert manifest["completed"] == 1
        assert manifest["failed"] == 1
        assert manifest["retries"] == 1
        assert manifest["max_retries"] == 1
        entry = manifest["failures"][0]
        assert set(entry) == {
            "job_index", "job_name", "scenario", "attempts",
            "error_type", "message", "site", "traceback",
        }

    def test_write_failure_manifest_round_trips(self, tmp_path):
        import json

        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=0,
            fault_plan=_kill_plan("shellcode-t0"),
        )
        runner.run(_grid(2))
        path = runner.write_failure_manifest(tmp_path / "failures.json")
        assert json.loads(path.read_text()) == runner.failure_manifest()


class TestFailFast:
    def test_fail_fast_raises_job_failed_error(self):
        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=0, fail_fast=True,
            fault_plan=_kill_plan("shellcode-t1"),
        )
        with pytest.raises(JobFailedError) as excinfo:
            runner.run(_grid())
        assert excinfo.value.failure.job_name == "shellcode-t1"


class TestRetries:
    def test_attempt_scoped_fault_is_retried_to_success(self):
        """A fault matching only attempt 0 costs one retry per job it
        strikes and zero failures."""
        plan = FaultPlan(
            sites={"runner.job": FaultSpec(mode="raise", match="shellcode-t0@0")}
        )
        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=2, backoff_base=0.01,
            fault_plan=plan,
        )
        results = runner.run(_grid(2))
        assert len(results) == 2
        assert runner.job_failures == []
        assert runner.retries == 1

    def test_backoff_is_seeded_and_bounded(self):
        runner = ExperimentRunner(jobs=1, backoff_base=0.05, backoff_cap=0.4)
        waits = [runner._backoff_seconds("job-a", k) for k in range(8)]
        # Pure in (retry_seed, name, attempt): recomputing matches.
        assert waits == [runner._backoff_seconds("job-a", k) for k in range(8)]
        assert all(w <= 0.4 for w in waits)
        assert waits[0] >= 0.025  # base/2 floor at attempt 0
        other = ExperimentRunner(jobs=1, backoff_base=0.05, backoff_cap=0.4,
                                 retry_seed=1)
        assert waits != [other._backoff_seconds("job-a", k) for k in range(8)]


class TestTimeouts:
    """Timeout budgets here are deliberately generous: a parallel
    attempt's deadline starts at submission and therefore includes
    worker cold-start (interpreter + numpy import), and serial elapsed
    time stretches on loaded CI machines.  Innocent jobs (~0.4 s of
    compute) must sit far below the budget, faulted ones far above."""

    def test_serial_timeout_fails_the_slow_job(self):
        plan = FaultPlan(
            sites={
                "runner.job": FaultSpec(
                    mode="delay", delay_seconds=3.0, match="shellcode-t1@"
                )
            }
        )
        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=0, job_timeout=2.0,
            fault_plan=plan,
        )
        results = runner.run(_grid())
        assert [r.job.name for r in results] == ["shellcode-t0", "shellcode-t2"]
        assert [f.error_type for f in runner.job_failures] == ["JobTimeout"]

    def test_parallel_timeout_manifest_matches_serial(self):
        plan = FaultPlan(
            sites={
                "runner.job": FaultSpec(
                    mode="delay", delay_seconds=4.0, match="shellcode-t1@"
                )
            }
        )

        def campaign(jobs):
            runner = ExperimentRunner(
                jobs=jobs, use_cache=False, max_retries=0, job_timeout=2.5,
                fault_plan=plan,
            )
            runner.run(_grid(2))
            return runner.failure_manifest()

        assert campaign(jobs=1) == campaign(jobs=2)

    def test_timed_out_attempt_can_recover_on_retry(self):
        plan = FaultPlan(
            sites={
                "runner.job": FaultSpec(
                    mode="delay", delay_seconds=3.0, match="shellcode-t0@0"
                )
            }
        )
        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=1, backoff_base=0.01,
            job_timeout=2.0, fault_plan=plan,
        )
        results = runner.run(_grid(1))
        assert len(results) == 1
        assert runner.job_failures == []
        assert runner.retries == 1


class TestWorkerCrash:
    """``crash`` mode hard-kills the worker (``os._exit``); the runner
    must replace the broken pool and keep the rest of the grid alive.
    Parallel-only: a crash plan in-process would kill pytest itself."""

    def test_crashed_worker_is_replaced_and_grid_completes(self):
        """A hard worker death breaks the pool, which also fails any
        *other* attempt in flight at that moment.  Only an attempt that
        crashed alone in flight is charged; the others re-run alone at
        the same attempt number, so a bystander survives however often
        its neighbour crashes, and the culprit uses up its whole retry
        budget."""
        plan = FaultPlan(
            sites={"runner.job": FaultSpec(mode="crash", match="shellcode-t1@")}
        )
        runner = ExperimentRunner(
            jobs=2, use_cache=False, max_retries=2, backoff_base=0.01,
            fault_plan=plan,
        )
        results = runner.run(_grid())
        assert {r.job.name for r in results} == {"shellcode-t0", "shellcode-t2"}
        assert [f.job_name for f in runner.job_failures] == ["shellcode-t1"]
        assert runner.job_failures[0].error_type == "WorkerCrash"
        assert runner.job_failures[0].attempts == 3  # every attempt crashed

    def test_crash_on_first_attempt_only_recovers_via_retry(self):
        plan = FaultPlan(
            sites={"runner.job": FaultSpec(mode="crash", match="shellcode-t0@0")}
        )
        runner = ExperimentRunner(
            jobs=2, use_cache=False, max_retries=2, backoff_base=0.01,
            fault_plan=plan,
        )
        results = runner.run(_grid(2))
        assert {r.job.name for r in results} == {"shellcode-t0", "shellcode-t1"}
        assert runner.job_failures == []
        assert runner.retries >= 1


class TestSerialTimeoutSemantics:
    def test_fast_jobs_unaffected_by_budget(self):
        runner = ExperimentRunner(
            jobs=1, use_cache=False, max_retries=0, job_timeout=30.0
        )
        started = time.monotonic()
        results = runner.run(_grid(2))
        assert len(results) == 2
        assert runner.job_failures == []
        assert time.monotonic() - started < 30.0

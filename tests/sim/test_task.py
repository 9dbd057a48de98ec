"""Tests for the periodic task model."""

import numpy as np
import pytest

from repro.sim.engine import NS_PER_MS
from repro.sim.task import Job, SyscallUse, TaskDefinition
from repro.sim.workloads.mibench import paper_taskset, sha_task


def _definition(**overrides):
    defaults = dict(
        name="t",
        exec_time_ns=2 * NS_PER_MS,
        period_ns=10 * NS_PER_MS,
        syscalls=(SyscallUse("read", 2),),
        exec_jitter=0.0,
        pagefaults_per_job=0.0,
    )
    defaults.update(overrides)
    return TaskDefinition(**defaults)


class TestTaskDefinition:
    def test_utilization(self):
        assert _definition().utilization == pytest.approx(0.2)

    def test_paper_taskset_utilization(self):
        # Section 5.1: system load 78 %.
        total = sum(t.utilization for t in paper_taskset())
        assert total == pytest.approx(0.78)

    def test_exec_exceeding_period_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            _definition(exec_time_ns=11 * NS_PER_MS)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            _definition(exec_time_ns=0)
        with pytest.raises(ValueError):
            _definition(period_ns=0)

    def test_bad_jitter_rejected(self):
        with pytest.raises(ValueError):
            _definition(exec_jitter=0.5)

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            _definition(phase_ns=-1)

    def test_syscall_use_validation(self):
        with pytest.raises(ValueError):
            SyscallUse("read", 0)

    def test_resolved_user_base_auto_spacing(self):
        definition = _definition()
        assert definition.resolved_user_base(0) != definition.resolved_user_base(1)

    def test_resolved_user_base_explicit(self):
        definition = _definition(user_text_base=0x12345000)
        assert definition.resolved_user_base(9) == 0x12345000

    def test_with_phase(self):
        shifted = _definition().with_phase(3 * NS_PER_MS)
        assert shifted.phase_ns == 3 * NS_PER_MS
        assert shifted.name == "t"


class TestJobPlanning:
    def test_calls_sorted_and_counted(self, rng):
        definition = _definition(
            syscalls=(SyscallUse("read", 5), SyscallUse("write", 3))
        )
        job = Job(definition, release_ns=0, rng=rng, user_base=0x10000)
        assert len(job.calls) == 8
        offsets = [c.user_offset_ns for c in job.calls]
        assert offsets == sorted(offsets)
        assert all(0 < off < job.user_required_ns for off in offsets)

    def test_pagefaults_add_service_calls(self, rng):
        definition = _definition(pagefaults_per_job=50.0)
        job = Job(definition, release_ns=0, rng=rng, user_base=0x10000)
        faults = [c for c in job.calls if c.service == "kernel.page_fault"]
        assert faults  # Poisson(50) is never 0 in practice
        assert all(not c.via_table for c in faults)

    def test_zero_jitter_exec_time_exact(self, rng):
        definition = _definition()
        job = Job(definition, release_ns=0, rng=rng, user_base=0x10000)
        assert job.user_required_ns == definition.exec_time_ns

    def test_exec_jitter_bounded_below(self):
        definition = _definition(exec_jitter=0.4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            job = Job(definition, release_ns=0, rng=rng, user_base=0x10000)
            assert job.user_required_ns >= definition.exec_time_ns * 0.5


class TestJobProgress:
    def _job(self, rng, **overrides):
        return Job(_definition(**overrides), release_ns=0, rng=rng, user_base=0x10000)

    def test_fresh_job_incomplete(self, rng):
        job = self._job(rng)
        assert job.advance(0)[1] >= 0
        assert job.next_call == 0 < len(job.calls)

    def test_milestone_is_next_call(self, rng):
        job = self._job(rng)
        assert job.time_to_next_milestone() == job.calls[0].user_offset_ns

    def test_advance_consumes_kernel_first(self, rng):
        job = self._job(rng)
        job.kernel_pending_ns = 100
        job.advance(150)
        assert job.kernel_pending_ns == 0
        assert job.kernel_time_ns == 100
        assert job.user_done_ns == 50

    def test_advance_partial_kernel(self, rng):
        job = self._job(rng)
        job.kernel_pending_ns = 100
        job.advance(40)
        assert job.kernel_pending_ns == 60
        assert job.user_done_ns == 0

    def test_negative_advance_rejected(self, rng):
        with pytest.raises(ValueError):
            self._job(rng).advance(-1)

    def test_completion_path(self, rng):
        job = self._job(rng, syscalls=())
        assert job.advance(job.user_required_ns)[1] == -1
        assert job.time_to_next_milestone() == 0

    def test_user_time_does_not_overshoot(self, rng):
        job = self._job(rng, syscalls=())
        job.advance(job.user_required_ns * 10)
        assert job.user_done_ns == job.user_required_ns

    def test_response_time(self, rng):
        job = Job(_definition(), release_ns=1000, rng=rng, user_base=0x10000)
        assert job.response_time_ns is None
        job.completed_at_ns = 5000
        assert job.response_time_ns == 4000

    def test_sha_profile_is_read_heavy(self, rng):
        """Section 5.3: sha 'uses many read system calls'."""
        job = Job(sha_task(), release_ns=0, rng=rng, user_base=0x10000)
        reads = sum(1 for c in job.calls if c.service == "read")
        others = sum(
            1 for c in job.calls if c.via_table and c.service != "read"
        )
        assert reads >= 5 * others

"""Differential suite: a job's call plan and progress vs the scalar code.

``Job._plan_calls`` places a job's syscalls with one
``uniform(-0.3, 0.3, size=n)`` draw and its page faults with one
``uniform(0.01, 0.99, size=k)`` draw, and does the placement arithmetic
on arrays.  The oracle is the scalar loop it replaced: one ``uniform``
call per call, ``int()`` truncation and a stable list sort.  Offsets,
services, ``via_table`` flags, order and the generator state afterwards
must be identical.

``Job.advance`` folds the scheduler's old per-milestone sequence
(``advance``, ``pending_call``, starting the call's kernel segment,
``is_complete``, ``time_to_next_milestone``) into one call.  The oracle
replays that sequence on a copy of the job's state; every field and
every returned value must agree after each step.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.task import Job, SyscallUse, TaskDefinition
from tests.sim.test_rng_spellings import _state

NAMES = ("read", "write", "brk", "getpid", "mmap")


@st.composite
def tasks(draw):
    exec_time = draw(st.integers(1, 50_000_000))
    uses = draw(
        st.lists(
            st.builds(
                SyscallUse,
                name=st.sampled_from(NAMES),
                count=st.one_of(st.integers(1, 4), st.integers(5, 80)),
            ),
            max_size=6,
        )
    )
    return TaskDefinition(
        name="t",
        exec_time_ns=exec_time,
        period_ns=exec_time * draw(st.integers(1, 4)),
        syscalls=tuple(uses),
        exec_jitter=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.45))),
        pagefaults_per_job=draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0))),
    )


def _reference_calls(task, rng):
    """``Job.__init__``'s draws with the scalar plan loop."""
    jitter = rng.normal(1.0, task.exec_jitter) if task.exec_jitter else 1.0
    span = max(1, int(task.exec_time_ns * max(0.5, jitter)))
    calls = []
    for use in task.syscalls:
        for i in range(use.count):
            fraction = (i + 0.5) / use.count
            fraction += rng.uniform(-0.3, 0.3) / use.count
            fraction = min(0.99, max(0.01, fraction))
            calls.append((int(fraction * span), use.name, True))
    for _ in range(int(rng.poisson(task.pagefaults_per_job))):
        calls.append((int(rng.uniform(0.01, 0.99) * span), "kernel.page_fault", False))
    calls.sort(key=lambda c: c[0])
    return span, calls


@given(task=tasks(), seed=st.integers(0, 2**32 - 1), jobs=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_plan_calls_equals_scalar_loop(task, seed, jobs):
    ours = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for _ in range(jobs):
        job = Job(task, release_ns=0, rng=ours, user_base=0)
        span, calls = _reference_calls(task, reference)
        assert job.user_required_ns == span
        assert [tuple(call) for call in job.calls] == calls
        assert all(type(call.user_offset_ns) is int for call in job.calls)
        assert _state(ours) == _state(reference)


class ReferenceJob:
    """The job-progress methods as the scheduler used to call them."""

    def __init__(self, job: Job):
        self.user_required_ns = job.user_required_ns
        self.user_done_ns = job.user_done_ns
        self.kernel_pending_ns = job.kernel_pending_ns
        self.kernel_time_ns = job.kernel_time_ns
        self.calls = list(job.calls)
        self.next_call = job.next_call

    def fields(self):
        return (
            self.user_done_ns,
            self.kernel_pending_ns,
            self.kernel_time_ns,
            self.next_call,
        )

    def advance(self, elapsed_ns):
        take = min(self.kernel_pending_ns, elapsed_ns)
        self.kernel_pending_ns -= take
        self.kernel_time_ns += take
        remaining = elapsed_ns - take
        if remaining > 0:
            self.user_done_ns = min(
                self.user_required_ns, self.user_done_ns + remaining
            )

    @property
    def pending_call(self):
        if self.next_call < len(self.calls):
            return self.calls[self.next_call]
        return None

    @property
    def is_complete(self):
        return (
            self.user_done_ns >= self.user_required_ns
            and self.kernel_pending_ns == 0
            and self.next_call >= len(self.calls)
        )

    def time_to_next_milestone(self):
        if self.kernel_pending_ns > 0:
            return self.kernel_pending_ns
        call = self.pending_call
        if call is not None:
            return max(0, call.user_offset_ns - self.user_done_ns)
        return self.user_required_ns - self.user_done_ns

    def charge(self, elapsed):
        """``_charge_current``: the kernel part of ``elapsed``."""
        if elapsed <= 0:
            return 0
        before = self.kernel_pending_ns
        self.advance(elapsed)
        return before - self.kernel_pending_ns

    def milestone(self, elapsed, invoke):
        """One pass of the old ``_milestone`` loop body."""
        kernel_part = self.charge(elapsed)
        call = self.pending_call
        if (
            self.kernel_pending_ns == 0
            and call is not None
            and self.user_done_ns >= call.user_offset_ns
        ):
            self.next_call += 1
            self.kernel_pending_ns += max(0, invoke(call))
        if self.is_complete:
            return kernel_part, -1
        return kernel_part, self.time_to_next_milestone()


steps = st.lists(
    st.tuples(
        st.sampled_from(["milestone", "charge"]),
        st.one_of(
            st.just("exact"),
            st.just(0),
            st.integers(1, 2_000),
            st.integers(1, 60_000_000),
        ),
        st.one_of(st.integers(-5, 0), st.integers(1, 400_000)),
    ),
    min_size=1,
    max_size=120,
)


@given(task=tasks(), seed=st.integers(0, 2**32 - 1), steps=steps)
@settings(max_examples=150, deadline=None)
def test_advance_equals_old_step_sequence(task, seed, steps):
    job = Job(task, release_ns=0, rng=np.random.default_rng(seed), user_base=0)
    reference = ReferenceJob(job)
    for kind, elapsed, latency in steps:
        if elapsed == "exact":
            elapsed = reference.time_to_next_milestone()
        ours_calls, reference_calls = [], []

        def invoke(call, log, latency=latency):
            log.append(call)
            return latency

        if kind == "milestone":
            got = job.advance(elapsed, lambda call: invoke(call, ours_calls))
            want = reference.milestone(
                elapsed, lambda call: invoke(call, reference_calls)
            )
        else:
            got = job.advance(elapsed)
            want = (reference.charge(elapsed), None)
            got = (got[0], None)
        assert got == want
        assert ours_calls == reference_calls
        assert (
            job.user_done_ns,
            job.kernel_pending_ns,
            job.kernel_time_ns,
            job.next_call,
        ) == reference.fields()
        assert (job.advance(0)[1] < 0) == reference.is_complete
        assert job.time_to_next_milestone() == reference.time_to_next_milestone()
        if reference.is_complete:
            break


def test_call_plan_cached_per_definition():
    task = TaskDefinition(
        name="t", exec_time_ns=1_000, period_ns=2_000, syscalls=(SyscallUse("read", 3),)
    )
    assert task._call_plan is task._call_plan
    centres, counts, names = task._call_plan
    np.testing.assert_array_equal(centres, [0.5 / 3, 1.5 / 3, 2.5 / 3])
    np.testing.assert_array_equal(counts, [3.0, 3.0, 3.0])
    assert names == ("read",) * 3
    # Not a field: equality, hashing and copies ignore it.
    assert copy.deepcopy(task) == task
    assert hash(task) == hash(copy.copy(task))

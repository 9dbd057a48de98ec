"""Periodic real-time task model.

The paper's workload (Section 5.1) is a set of periodic applications
(MiBench programs with manually assigned periods).  A
:class:`TaskDefinition` captures what the MHM detector actually cares
about: how long a job runs, how often it is released, and which kernel
services it invokes along the way — because only the *kernel-side*
activity lands inside the monitored region.

A :class:`Job` is one release of a task.  Its execution is a timeline of
user-time segments punctuated by kernel-service invocations; each
invocation adds the service's CPU latency to the job and emits the
service's fetch footprint at the invocation instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernel.layout import USER_SPACE_BASE

__all__ = ["SyscallUse", "TaskDefinition", "KernelCall", "Job"]


@dataclass(frozen=True)
class SyscallUse:
    """A task's per-job usage of one syscall: ``count`` calls, spread
    evenly across the job's user-time with a little placement jitter."""

    name: str
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("syscall count must be positive")


@dataclass(frozen=True)
class TaskDefinition:
    """Static description of a periodic task.

    Parameters
    ----------
    name:
        Unique task name (also the tie-break for equal periods).
    exec_time_ns:
        Mean user-space execution time per job.
    period_ns:
        Release period; rate-monotonic priority follows from it.
    syscalls:
        Kernel services each job invokes (name, per-job count).
    exec_jitter:
        Relative standard deviation of per-job execution time.
    phase_ns:
        Release offset of the first job.
    pagefaults_per_job:
        Expected number of (Poisson-distributed) page faults per job.
    user_text_base:
        Base of the task's user text; fetches there are emitted so the
        Memometer's address filter is exercised, then dropped by it.
    core:
        Monitored core the task is partitioned onto (SMP platforms;
        see paper Section 5.5).
    """

    name: str
    exec_time_ns: int
    period_ns: int
    syscalls: tuple[SyscallUse, ...] = ()
    exec_jitter: float = 0.02
    phase_ns: int = 0
    pagefaults_per_job: float = 0.2
    user_text_base: Optional[int] = None
    core: int = 0

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError("core must be non-negative")
        if self.exec_time_ns <= 0:
            raise ValueError("exec_time_ns must be positive")
        if self.period_ns <= 0:
            raise ValueError("period_ns must be positive")
        if self.exec_time_ns > self.period_ns:
            raise ValueError(
                f"task {self.name!r}: exec time {self.exec_time_ns} exceeds "
                f"period {self.period_ns}"
            )
        if not 0.0 <= self.exec_jitter < 0.5:
            raise ValueError("exec_jitter must be in [0, 0.5)")
        if self.phase_ns < 0:
            raise ValueError("phase_ns must be non-negative")
        if self.pagefaults_per_job < 0:
            raise ValueError("pagefaults_per_job must be non-negative")

    @property
    def utilization(self) -> float:
        return self.exec_time_ns / self.period_ns

    def resolved_user_base(self, index: int) -> int:
        """User text base; auto-spaced by task index when unspecified."""
        if self.user_text_base is not None:
            return self.user_text_base
        return USER_SPACE_BASE + (index + 1) * 0x0010_0000

    @cached_property
    def _call_plan(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Per planned syscall, in declaration order: the centre
        ``(i + 0.5) / count`` of its slot, its use's ``count`` and its
        name (computed once per definition)."""
        centres: list[float] = []
        counts: list[float] = []
        names: list[str] = []
        for use in self.syscalls:
            for i in range(use.count):
                centres.append((i + 0.5) / use.count)
                counts.append(float(use.count))
                names.append(use.name)
        return (
            np.array(centres, dtype=np.float64),
            np.array(counts, dtype=np.float64),
            tuple(names),
        )

    def with_phase(self, phase_ns: int) -> "TaskDefinition":
        from dataclasses import replace

        return replace(self, phase_ns=phase_ns)

    def on_core(self, core: int) -> "TaskDefinition":
        from dataclasses import replace

        return replace(self, core=core)


class KernelCall(NamedTuple):
    """A scheduled kernel entry within a job's user-time.

    ``user_offset_ns`` is the amount of *user* execution after which the
    call fires.  ``via_table`` distinguishes syscalls (dispatched
    through the — possibly hijacked — syscall table) from involuntary
    kernel entries such as page faults.
    """

    user_offset_ns: int
    service: str
    via_table: bool = True


class Job:
    """One release of a periodic task."""

    __slots__ = (
        "task",
        "release_ns",
        "user_required_ns",
        "user_done_ns",
        "kernel_pending_ns",
        "kernel_time_ns",
        "calls",
        "next_call",
        "completed_at_ns",
        "preemptions",
        "dispatch_stamp",
        "user_base",
    )

    def __init__(
        self,
        task: TaskDefinition,
        release_ns: int,
        rng: np.random.Generator,
        user_base: int,
    ):
        self.task = task
        self.release_ns = release_ns
        jitter = rng.normal(1.0, task.exec_jitter) if task.exec_jitter else 1.0
        self.user_required_ns = max(1, int(task.exec_time_ns * max(0.5, jitter)))
        self.user_done_ns = 0
        self.kernel_pending_ns = 0
        self.kernel_time_ns = 0
        self.calls = self._plan_calls(rng)
        self.next_call = 0
        self.completed_at_ns: Optional[int] = None
        self.preemptions = 0
        self.dispatch_stamp = 0
        self.user_base = user_base

    def _plan_calls(self, rng: np.random.Generator) -> list[KernelCall]:
        """Place the job's kernel entries along its user timeline.

        Syscall ``i`` of a use with ``count`` calls sits at fraction
        ``(i + 0.5) / count + u / count`` of the user time, ``u`` drawn
        from ``uniform(-0.3, 0.3)`` and the fraction clamped to [0.01,
        0.99]; page faults sit at ``uniform(0.01, 0.99)``.  Each kind is
        one array draw, which numpy fills element by element exactly as
        the same number of scalar draws, and every element goes through
        the same float operations a scalar loop makes.  ``astype``
        truncates like ``int``, and the stable sort keeps declaration
        order among equal offsets.
        """
        centres, counts, services = self.task._call_plan
        span = self.user_required_ns
        offsets = np.empty(0, dtype=np.int64)
        if services:
            fractions = rng.uniform(-0.3, 0.3, size=len(services))
            fractions /= counts
            fractions += centres
            np.clip(fractions, 0.01, 0.99, out=fractions)
            fractions *= span
            offsets = fractions.astype(np.int64)
        n_faults = int(rng.poisson(self.task.pagefaults_per_job))
        if n_faults:
            faults = rng.uniform(0.01, 0.99, size=n_faults)
            faults *= span
            offsets = np.concatenate([offsets, faults.astype(np.int64)])
            services = services + ("kernel.page_fault",) * n_faults
        planned = len(centres)
        offsets_ns = offsets.tolist()
        return [
            KernelCall(offsets_ns[i], services[i], i < planned)
            for i in np.argsort(offsets, kind="stable").tolist()
        ]

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def advance(
        self,
        elapsed_ns: int,
        invoke: Optional[Callable[[KernelCall], int]] = None,
    ) -> tuple[int, int]:
        """Consume ``elapsed_ns`` of CPU and say what comes next.

        The CPU goes to the pending kernel segment first, then to user
        time (matching how the monitored core actually spends it).
        With ``invoke``, the next kernel call is taken if it is now due
        (no kernel segment pending and its offset reached):
        ``invoke(call)`` runs it and returns its latency, which becomes
        the new kernel segment.

        Returns ``(kernel_ns, next_ns)``: the part of ``elapsed_ns``
        spent in the kernel, and the CPU time until the next milestone,
        or -1 once the job is complete.  Milestones are, in order of
        precedence: finishing the current kernel segment, reaching the
        next kernel-call offset, finishing the job's user time.
        """
        if elapsed_ns < 0:
            raise ValueError("cannot advance by negative time")
        pending = self.kernel_pending_ns
        required = self.user_required_ns
        user_done = self.user_done_ns
        kernel_ns = pending if pending < elapsed_ns else elapsed_ns
        if kernel_ns:
            pending -= kernel_ns
            self.kernel_pending_ns = pending
            self.kernel_time_ns += kernel_ns
        if elapsed_ns > kernel_ns:
            user_done += elapsed_ns - kernel_ns
            if user_done > required:
                user_done = required
            self.user_done_ns = user_done
        calls = self.calls
        index = self.next_call
        if not pending and invoke is not None and index < len(calls):
            call = calls[index]
            if user_done >= call.user_offset_ns:
                self.next_call = index = index + 1
                pending = self.kernel_pending_ns = max(0, invoke(call))
        if pending:
            return kernel_ns, pending
        if index < len(calls):
            gap = calls[index].user_offset_ns - user_done
            return kernel_ns, gap if gap > 0 else 0
        if user_done < required:
            return kernel_ns, required - user_done
        return kernel_ns, -1

    def time_to_next_milestone(self) -> int:
        """CPU time until the next event in this job's execution (0
        once it is complete); see :meth:`advance`."""
        return max(0, self.advance(0)[1])

    @property
    def response_time_ns(self) -> Optional[int]:
        if self.completed_at_ns is None:
            return None
        return self.completed_at_ns - self.release_ns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job({self.task.name}@{self.release_ns}, "
            f"user={self.user_done_ns}/{self.user_required_ns})"
        )

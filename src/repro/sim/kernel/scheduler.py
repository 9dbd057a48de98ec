"""Preemptive rate-monotonic scheduler for the monitored core.

The paper's platform runs periodic MiBench tasks under a real-time
schedule (Section 5.1; the 78 % utilisation figure implies fixed
priorities by period).  The scheduler here is a faithful uniprocessor
RM model:

* jobs are released periodically (with a per-task phase);
* the highest-priority ready job always runs; lower-priority jobs are
  preempted mid-execution and resumed later;
* every dispatch that switches contexts emits the kernel's
  context-switch footprint, every release emits the wakeup footprint,
  and every kernel call a job makes emits that service's footprint —
  which is how application behaviour becomes visible in kernel MHMs.

Deadline policy: if a job is still running when its successor is due,
the release is *skipped* and recorded as a deadline miss (a common
embedded policy that keeps the backlog bounded).  The paper's normal
workload never misses; the qsort overload scenario may, which only
amplifies the anomaly — exactly the paper's observation that "the
timings of the other tasks are affected by qsort".

A running job advances milestone by milestone (kernel-call offsets,
kernel-segment ends, completion).  When the next milestone would be the
engine's next event anyway, :meth:`~repro.sim.engine.Simulator.advance_inline`
lets the scheduler run it in place instead of scheduling it; the order
of events is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ... import obs
from ..engine import EventHandle, Simulator
from ..task import Job, KernelCall, TaskDefinition
from .kernel import Kernel

__all__ = ["TaskStats", "TaskControl", "RMScheduler"]

#: The token user-space burst every dispatch emits: 8 word offsets
#: below 0x8000 from the task's user base, each fetched 4 times.
_USER_SLICE_ADDRESSES = 8
_USER_SLICE_WORDS = 0x8000
#: Per-address weights of that burst; shared and read-only, since no
#: probe writes burst weights.
_USER_SLICE_WEIGHTS = np.full(_USER_SLICE_ADDRESSES, 4, dtype=np.int64)
_USER_SLICE_WEIGHTS.setflags(write=False)
_USER_SLICE_ACCESSES = int(_USER_SLICE_WEIGHTS.sum())
#: Highest byte offset a slice address can have from the user base.
_USER_SLICE_SPAN = (_USER_SLICE_WORDS - 1) * 4


@dataclass
class TaskStats:
    """Per-task accounting."""

    releases: int = 0
    completions: int = 0
    deadline_misses: int = 0
    preemptions: int = 0
    response_times_ns: list[int] = field(default_factory=list)
    total_user_ns: int = 0
    total_kernel_ns: int = 0

    @property
    def mean_response_ns(self) -> float:
        if not self.response_times_ns:
            return 0.0
        return float(np.mean(self.response_times_ns))

    @property
    def max_response_ns(self) -> int:
        return max(self.response_times_ns, default=0)


@dataclass
class TaskControl:
    """Runtime state of an admitted task."""

    definition: TaskDefinition
    user_base: int
    release_handle: Optional[EventHandle] = None
    active_job: Optional[Job] = None
    stats: TaskStats = field(default_factory=TaskStats)

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def priority(self) -> tuple[int, str]:
        """RM priority key: smaller period wins; name breaks ties."""
        return (self.definition.period_ns, self.definition.name)


class RMScheduler:
    """Rate-monotonic preemptive scheduler driving one monitored core."""

    def __init__(
        self,
        sim: Simulator,
        kernel: Kernel,
        rng: np.random.Generator,
        core_id: int = 0,
    ):
        self.sim = sim
        self.kernel = kernel
        self.rng = rng
        #: Which monitored core this scheduler drives (SMP platforms).
        self.core_id = core_id
        self._tasks: dict[str, TaskControl] = {}
        self._ready: list[Job] = []
        self._current: Optional[Job] = None
        self._current_event: Optional[EventHandle] = None
        self._dispatched_at: int = 0
        self._last_running: Optional[str] = None
        self.context_switches = 0
        self.busy_ns = 0
        self._task_index = 0
        registry = obs.metrics()
        self._metric_dispatches = registry.counter("sched.dispatches")
        self._metric_switches = registry.counter("sched.context_switches")
        self._metric_releases = registry.counter("sched.job_releases")
        self._metric_preemptions = registry.counter("sched.preemptions")
        self._metric_misses = registry.counter("sched.deadline_misses")
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    # Task admission
    # ------------------------------------------------------------------
    def add_task(
        self, definition: TaskDefinition, first_release_ns: Optional[int] = None
    ) -> TaskControl:
        """Admit a periodic task; first release defaults to its phase
        (or *now* when added at runtime after its phase has passed)."""
        if definition.name in self._tasks:
            raise ValueError(f"task {definition.name!r} already admitted")
        tcb = TaskControl(
            definition=definition,
            user_base=definition.resolved_user_base(self._task_index),
        )
        self._task_index += 1
        self._tasks[definition.name] = tcb
        first = definition.phase_ns if first_release_ns is None else first_release_ns
        first = max(first, self.sim.now)
        tcb.release_handle = self.sim.schedule_at(first, self._release, tcb)
        return tcb

    def remove_task(self, name: str) -> TaskControl:
        """Withdraw a task: no further releases; a running or queued job
        is aborted immediately (the process has exited)."""
        tcb = self._tasks.pop(name, None)
        if tcb is None:
            raise KeyError(f"task {name!r} is not admitted")
        if tcb.release_handle is not None:
            self.sim.cancel(tcb.release_handle)
            tcb.release_handle = None
        job = tcb.active_job
        if job is not None:
            if self._current is job:
                self._charge_current()
                self._cancel_current_event()
                self._current = None
                self._dispatch()
            elif job in self._ready:
                self._ready.remove(job)
            tcb.active_job = None
        return tcb

    def task(self, name: str) -> TaskControl:
        return self._tasks[name]

    @property
    def task_names(self) -> list[str]:
        return sorted(self._tasks)

    @property
    def is_idle(self) -> bool:
        return self._current is None and not self._ready

    @property
    def running_task(self) -> Optional[str]:
        return self._current.task.name if self._current is not None else None

    def total_utilization(self) -> float:
        return sum(t.definition.utilization for t in self._tasks.values())

    # ------------------------------------------------------------------
    # Release path
    # ------------------------------------------------------------------
    def _release(self, tcb: TaskControl) -> None:
        if tcb.name not in self._tasks:  # removed concurrently
            return
        defn = tcb.definition
        tcb.release_handle = self.sim.schedule_after(
            defn.period_ns, self._release, tcb
        )
        if tcb.active_job is not None:
            # Previous job overran its period: skip this release.
            tcb.stats.deadline_misses += 1
            self._metric_misses.inc()
            return
        tcb.stats.releases += 1
        self._metric_releases.inc()
        job = Job(defn, release_ns=self.sim.now, rng=self.rng, user_base=tcb.user_base)
        tcb.active_job = job
        self.kernel.run_service("kernel.job_release", core=self.core_id)
        self._enqueue(job)

    def _enqueue(self, job: Job) -> None:
        if self._current is None:
            self._ready.append(job)
            self._dispatch()
            return
        if self._priority(job) < self._priority(self._current):
            self._preempt_current()
            self._ready.append(job)
            self._dispatch()
        else:
            self._ready.append(job)

    @staticmethod
    def _priority(job: Job) -> tuple[int, str]:
        return (job.task.period_ns, job.task.name)

    # ------------------------------------------------------------------
    # Dispatch / execution
    # ------------------------------------------------------------------
    def _preempt_current(self) -> None:
        job = self._current
        assert job is not None
        self._charge_current()
        self._cancel_current_event()
        job.preemptions += 1
        self._tasks[job.task.name].stats.preemptions += 1
        self._metric_preemptions.inc()
        self._ready.append(job)
        self._current = None

    def _charge_current(self) -> None:
        """Account the CPU time the current job consumed since dispatch."""
        if self._current is not None:
            self._charge(self._current)

    def _charge(self, job: Job, invoke=None) -> int:
        """Advance ``job`` by the CPU time since dispatch and account it;
        with ``invoke``, also take the kernel call now due.  Returns
        ``Job.advance``'s time to the next milestone (-1: complete)."""
        now = self.sim.now
        elapsed = now - self._dispatched_at
        kernel_ns, next_ns = job.advance(elapsed, invoke)
        if elapsed > 0:
            self.busy_ns += elapsed
            tcb = self._tasks.get(job.task.name)
            if tcb is not None:  # may be mid-removal (process exit)
                tcb.stats.total_kernel_ns += kernel_ns
                tcb.stats.total_user_ns += elapsed - kernel_ns
            self._dispatched_at = now
        return next_ns

    def _cancel_current_event(self) -> None:
        if self._current_event is not None:
            self.sim.cancel(self._current_event)
            self._current_event = None

    def _dispatch(self) -> None:
        """Run the highest-priority ready job, if any."""
        if self._current is not None or not self._ready:
            return
        job = min(self._ready, key=self._priority)
        self._ready.remove(job)
        self._current = job
        self._dispatched_at = self.sim.now
        job.dispatch_stamp += 1
        self._metric_dispatches.inc()
        if self._last_running != job.task.name:
            self.kernel.run_service("kernel.context_switch", core=self.core_id)
            self.context_switches += 1
            self._metric_switches.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "sched.context_switch",
                    self.sim.now,
                    category="sched",
                    args={"task": job.task.name, "core": self.core_id},
                    track=self.core_id,
                )
            self._last_running = job.task.name
        self._emit_user_slice(job)
        self._schedule_milestone(job)

    def _emit_user_slice(self, job: Job) -> None:
        """A token user-space burst per dispatch (exercises the filter).

        The offsets are drawn either way.  When every probe filters the
        slice's whole span out, the kernel counts the miss without the
        addresses.
        """
        words = self.rng.integers(
            0, _USER_SLICE_WORDS, size=_USER_SLICE_ADDRESSES
        )
        base = job.user_base
        if not self.kernel.count_missed_burst(
            base, base + _USER_SLICE_SPAN, _USER_SLICE_ACCESSES
        ):
            self.kernel.emit_user_burst(
                base + words * 4, _USER_SLICE_WEIGHTS, core=self.core_id
            )

    def _schedule_milestone(self, job: Job) -> None:
        dt = job.time_to_next_milestone()
        self._current_event = self.sim.schedule_after(
            dt, self._milestone, job, job.dispatch_stamp
        )

    def _milestone(self, job: Job, stamp: int) -> None:
        if self._current is not job or job.dispatch_stamp != stamp:
            return  # stale event (job was preempted or removed)
        self._current_event = None
        sim = self.sim
        invoke = self._invoke
        while True:
            next_ns = self._charge(job, invoke)
            if next_ns < 0:
                self._complete(job)
                return
            # The next milestone runs in place when it would be the
            # engine's next event anyway; else it is scheduled.
            next_ns += sim.now
            if not sim.advance_inline(next_ns):
                break
        self._current_event = sim.schedule_at(
            next_ns, self._milestone, job, job.dispatch_stamp
        )

    def _invoke(self, call: KernelCall) -> int:
        """Run a job's kernel call; returns its CPU latency."""
        if call.via_table:
            return self.kernel.invoke_syscall(call.service, core=self.core_id)
        return self.kernel.run_service(call.service, core=self.core_id)

    def _complete(self, job: Job) -> None:
        job.completed_at_ns = self.sim.now
        tcb = self._tasks.get(job.task.name)
        if tcb is not None:
            tcb.active_job = None
            tcb.stats.completions += 1
            tcb.stats.response_times_ns.append(job.response_time_ns)
        self._current = None
        self._dispatch()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats_summary(self) -> dict[str, TaskStats]:
        return {name: tcb.stats for name, tcb in self._tasks.items()}

    def measured_utilization(self) -> float:
        """Fraction of elapsed simulated time the core was busy."""
        if self.sim.now == 0:
            return 0.0
        # Include the in-flight slice of the currently running job.
        in_flight = self.sim.now - self._dispatched_at if self._current else 0
        return (self.busy_ns + in_flight) / self.sim.now

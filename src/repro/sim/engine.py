"""A small deterministic discrete-event simulation engine.

The paper's prototype ran on Simics, a full-system simulator.  The
learning pipeline, however, only consumes the *memory access stream* of
the monitored core, so this reproduction simulates the platform at
memory-access granularity: kernel services, scheduler decisions and
interrupts are events that emit bursts of instruction-fetch addresses.

The engine is intentionally minimal: an absolute-time event queue with
deterministic FIFO tie-breaking, cancellable handles and periodic
sources.  Time is integer nanoseconds throughout so runs are exactly
reproducible.

The queue is a heap of ``(time_ns, seq, handle)`` tuples.  ``seq`` comes
from one counter and is never reused, so two entries always differ
before the handle and heap order is decided by C tuple comparison of
two ints; handles themselves are never compared.  A periodic source
pushes a fresh tuple per occurrence around the same handle, so one
:meth:`Simulator.cancel` stops the recurrence.

A callback that would schedule its own continuation at ``t`` may
instead ask :meth:`Simulator.advance_inline` to move the clock there
and carry on in place.  The engine agrees only inside
:meth:`Simulator.run_until`, only when ``t`` is within the run's
window and strictly before the head of the queue: exactly when the
scheduled event would have been the next one popped.  An event already
queued at ``t`` has a lower ``seq`` and runs first, so same-instant
FIFO order is kept.  Each advance counts as one executed event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from .. import obs

__all__ = ["EventHandle", "Simulator", "NS_PER_US", "NS_PER_MS", "NS_PER_SEC"]

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


class EventHandle:
    """A scheduled callback; cancel with :meth:`Simulator.cancel`."""

    __slots__ = ("time_ns", "seq", "fn", "args", "cancelled")

    def __init__(self, time_ns: int, seq: int, fn: Callable, args: tuple):
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = getattr(self.fn, "__name__", repr(self.fn))
        state = " cancelled" if self.cancelled else ""
        return f"EventHandle(t={self.time_ns}, fn={name}{state})"


class Simulator:
    """Deterministic event loop over integer-nanosecond simulated time.

    Events scheduled for the same instant run in scheduling order
    (FIFO), which keeps runs bit-for-bit reproducible regardless of the
    callback contents.
    """

    def __init__(self, start_time_ns: int = 0):
        self.now: int = start_time_ns
        self._queue: list[tuple[int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        # While running: the window end and the events run inline.
        self._end_ns = 0
        self._inline = 0
        registry = obs.metrics()
        self._metric_executed = registry.counter("sim.events_executed")
        self._metric_runs = registry.counter("sim.run_until_calls")
        self._metric_queue_depth = registry.gauge("sim.queue_depth")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time_ns: int, fn: Callable, *args) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule event in the past ({time_ns} < now={self.now})"
            )
        time_ns = int(time_ns)
        seq = next(self._seq)
        handle = EventHandle(time_ns, seq, fn, args)
        heapq.heappush(self._queue, (time_ns, seq, handle))
        return handle

    def schedule_after(self, delay_ns: int, fn: Callable, *args) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay_ns`` from now."""
        if delay_ns < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ns}")
        return self.schedule_at(self.now + delay_ns, fn, *args)

    def schedule_periodic(
        self,
        period_ns: int,
        fn: Callable,
        *args,
        start_at: Optional[int] = None,
    ) -> EventHandle:
        """Run ``fn(*args)`` every ``period_ns``, starting at ``start_at``.

        Returns the handle of the *next* occurrence; cancelling it stops
        the recurrence.  The handle object is reused for every
        occurrence so a single :meth:`cancel` always suffices.
        """
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        first = self.now + period_ns if start_at is None else start_at
        if first < self.now:
            raise ValueError(f"start_at {first} is before now={self.now}")

        first = int(first)
        seq = next(self._seq)
        handle = EventHandle(first, seq, fn, args)

        def _tick() -> None:
            fn(*args)
            if not handle.cancelled:
                handle.time_ns += period_ns
                handle.seq = next(self._seq)
                heapq.heappush(self._queue, (handle.time_ns, handle.seq, handle))

        handle.fn = _tick
        handle.args = ()
        heapq.heappush(self._queue, (first, seq, handle))
        return handle

    def advance_inline(self, time_ns: int) -> bool:
        """Move the clock to ``time_ns`` in place of scheduling an event.

        For a callback about to schedule its own next step at
        ``time_ns``: if that event would be the next one to run, the
        clock moves there, the call counts as one executed event and
        True is returned; the caller then runs the step itself.  That
        holds inside :meth:`run_until`, when ``time_ns`` is no later
        than the run's end and strictly earlier than every queued event.
        Otherwise nothing changes and False is returned; the caller
        schedules as usual.
        """
        if time_ns < self.now:
            raise ValueError(f"cannot advance into the past ({time_ns} < now={self.now})")
        if not self._running or time_ns > self._end_ns:
            return False
        queue = self._queue
        if queue and queue[0][0] <= time_ns:
            return False
        self.now = time_ns
        self._inline += 1
        return True

    @staticmethod
    def cancel(handle: EventHandle) -> None:
        """Cancel a pending event (safe to call more than once)."""
        handle.cancelled = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, end_time_ns: int) -> int:
        """Process all events with ``time <= end_time_ns``.

        Returns the number of events executed.  ``now`` is left at
        ``end_time_ns`` even if the queue drained earlier.
        """
        if end_time_ns < self.now:
            raise ValueError(f"end time {end_time_ns} is before now={self.now}")
        if self._running:
            raise RuntimeError("run_until called re-entrantly from a callback")
        self._running = True
        self._end_ns = end_time_ns
        self._inline = 0
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and queue[0][0] <= end_time_ns:
                time_ns, _, handle = pop(queue)
                if handle.cancelled:
                    continue
                self.now = time_ns
                handle.fn(*handle.args)
                executed += 1
        finally:
            self._running = False
        executed += self._inline
        self.now = end_time_ns
        self._metric_executed.inc(executed)
        self._metric_runs.inc()
        self._metric_queue_depth.set(len(self._queue))
        return executed

    def run_for(self, duration_ns: int) -> int:
        """Process all events in the next ``duration_ns`` of simulated time."""
        return self.run_until(self.now + duration_ns)

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator(now={self.now}ns, pending={self.pending_events})"

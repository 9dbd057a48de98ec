"""Property-based tests for the event engine (determinism guarantees)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class TestOrderingProperties:
    @given(times=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_time_then_insertion_order(self, times):
        sim = Simulator()
        fired = []
        for insertion_index, time_ns in enumerate(times):
            sim.schedule_at(time_ns, fired.append, (time_ns, insertion_index))
        sim.run_until(10_000)
        assert fired == sorted(fired)  # (time, insertion index) lexicographic
        assert len(fired) == len(times)

    @given(
        times=st.lists(st.integers(min_value=0, max_value=1_000), max_size=40),
        cancel_mask=st.lists(st.booleans(), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_cancelled_events_never_fire(self, times, cancel_mask):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule_at(t, fired.append, i) for i, t in enumerate(times)
        ]
        cancelled = set()
        for i, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
            if cancel:
                sim.cancel(handle)
                cancelled.add(i)
        sim.run_until(1_000)
        assert set(fired) == set(range(len(times))) - cancelled

    @given(
        boundary=st.integers(min_value=0, max_value=1_000),
        times=st.lists(st.integers(min_value=0, max_value=1_000), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_until_is_exact_boundary(self, boundary, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, fired.append, t)
        sim.run_until(boundary)
        assert all(t <= boundary for t in fired)
        assert sorted(fired) == sorted(t for t in times if t <= boundary)
        assert sim.now == boundary

    @given(
        period=st.integers(min_value=1, max_value=50),
        horizon=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_periodic_fires_exactly_floor_times(self, period, horizon):
        sim = Simulator()
        count = [0]
        sim.schedule_periodic(period, lambda: count.__setitem__(0, count[0] + 1))
        sim.run_until(horizon)
        assert count[0] == horizon // period


class _ReferenceQueue:
    """The engine's contract as a plain list: fire the pending entry with
    the smallest ``(time_ns, seq)``, where ``seq`` counts scheduling
    calls and periodic re-arms in the order they happen."""

    def __init__(self):
        self.now = 0
        self.entries = []  # [time_ns, seq, label, period or None]
        self.cancelled = set()  # labels
        self._seq = 0

    def schedule(self, time_ns, label, period=None):
        self.entries.append([time_ns, self._seq, label, period])
        self._seq += 1

    def run_until(self, end_ns, fired):
        while True:
            due = [e for e in self.entries if e[0] <= end_ns]
            if not due:
                break
            entry = min(due, key=lambda e: (e[0], e[1]))
            self.entries.remove(entry)
            time_ns, _, label, period = entry
            if label in self.cancelled:
                continue
            self.now = time_ns
            fired.append((time_ns, label))
            if period is not None:
                self.schedule(time_ns + period, label, period)
        self.now = end_ns

    @property
    def pending(self):
        return sum(1 for e in self.entries if e[2] not in self.cancelled)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(0, 300)),
        st.tuples(st.just("after"), st.integers(0, 300)),
        st.tuples(st.just("periodic"), st.integers(1, 60), st.integers(0, 100)),
        st.tuples(st.just("cancel"), st.integers(0, 2**16)),
        st.tuples(st.just("run"), st.integers(0, 200)),
    ),
    max_size=60,
)


class TestTupleHeapOrder:
    @given(ops=operations)
    @settings(max_examples=200, deadline=None)
    def test_execution_matches_time_seq_reference(self, ops):
        sim, ref = Simulator(), _ReferenceQueue()
        fired, ref_fired, handles = [], [], []

        def record(label):
            fired.append((sim.now, label))

        for op in ops:
            label = len(handles)
            if op[0] == "at":
                handles.append(sim.schedule_at(sim.now + op[1], record, label))
                ref.schedule(ref.now + op[1], label)
            elif op[0] == "after":
                handles.append(sim.schedule_after(op[1], record, label))
                ref.schedule(ref.now + op[1], label)
            elif op[0] == "periodic":
                period, offset = op[1], op[2]
                start = sim.now + offset
                handles.append(
                    sim.schedule_periodic(period, record, label, start_at=start)
                )
                ref.schedule(start, label, period)
            elif op[0] == "cancel" and handles:
                target = op[1] % len(handles)
                sim.cancel(handles[target])
                ref.cancelled.add(target)
            elif op[0] == "run":
                sim.run_for(op[1])
                ref.run_until(ref.now + op[1], ref_fired)
            assert sim.now == ref.now
            assert fired == ref_fired
            assert sim.pending_events == ref.pending
        sim.run_for(500)
        ref.run_until(ref.now + 500, ref_fired)
        assert fired == ref_fired

    @given(
        period=st.integers(1, 50),
        stop_after=st.integers(1, 10),
        others=st.lists(st.integers(0, 600), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_cancel_stops_a_periodic_source(self, period, stop_after, others):
        """Cancelled from inside its own callback, from another event,
        or twice: the recurrence stops and the handle never returns to
        the pending count."""
        sim = Simulator()
        ticks = []
        handle = None

        def tick():
            ticks.append(sim.now)
            if len(ticks) == stop_after:
                sim.cancel(handle)

        handle = sim.schedule_periodic(period, tick)
        for t in others:
            sim.schedule_at(t, lambda: None)
        sim.run_until(period * (stop_after + 5) + 600)
        assert ticks == [period * k for k in range(1, stop_after + 1)]
        assert sim.pending_events == 0
        sim.cancel(handle)  # idempotent
        sim.run_for(period * 10)
        assert len(ticks) == stop_after

    def test_same_instant_fifo_across_periodic_rearms(self):
        """A re-armed periodic occurrence takes a fresh sequence number,
        so it runs after same-instant events scheduled before the re-arm."""
        sim = Simulator()
        order = []
        sim.schedule_periodic(10, order.append, "tick")  # t=10, 20, ...
        sim.schedule_at(20, order.append, "early")  # scheduled before the re-arm
        sim.run_until(10)
        sim.schedule_at(20, order.append, "late")  # scheduled after it
        sim.run_until(20)
        assert order == ["tick", "early", "tick", "late"]


class _ChainReference(_ReferenceQueue):
    """The reference queue with milestone chains: a chain entry, when it
    fires, schedules its next step ``delta`` later, as a normal event."""

    def run_until(self, end_ns, fired):
        while True:
            due = [e for e in self.entries if e[0] <= end_ns]
            if not due:
                break
            entry = min(due, key=lambda e: (e[0], e[1]))
            self.entries.remove(entry)
            time_ns, _, label, chain = entry
            if label in self.cancelled:
                continue
            self.now = time_ns
            fired.append((time_ns, label))
            if chain:
                self.schedule(time_ns + chain[0], label, chain[1:])
        self.now = end_ns


chain_operations = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(0, 120)),
        st.tuples(
            st.just("chain"),
            st.integers(0, 60),
            st.lists(st.integers(0, 30), min_size=1, max_size=12),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 2**16)),
        st.tuples(st.just("run"), st.integers(0, 150)),
    ),
    max_size=40,
)


class TestInlineAdvance:
    """``advance_inline`` runs a callback's continuation in place only
    when the scheduled event would have been the next one anyway."""

    @given(ops=chain_operations)
    @settings(max_examples=200, deadline=None)
    def test_chains_match_time_seq_reference(self, ops):
        sim, ref = Simulator(), _ChainReference()
        fired, ref_fired, handles = [], [], []
        window = {"end": 0}
        executed = []

        def record(label):
            fired.append((sim.now, label))

        def chain_step(label, deltas):
            # A milestone chain as the scheduler runs one: do the step,
            # then continue in place while the engine allows it.
            while True:
                fired.append((sim.now, label))
                if not deltas:
                    return
                next_ns, deltas = sim.now + deltas[0], deltas[1:]
                if not sim.advance_inline(next_ns):
                    break
                assert next_ns <= window["end"]
                assert all(entry[0] > next_ns for entry in sim._queue)
            sim.schedule_at(next_ns, chain_step, label, deltas)

        for op in ops:
            label = len(handles)
            if op[0] == "at":
                handles.append(sim.schedule_at(sim.now + op[1], record, label))
                ref.schedule(ref.now + op[1], label)
            elif op[0] == "chain":
                start, deltas = sim.now + op[1], tuple(op[2])
                sim.schedule_at(start, chain_step, label, deltas)
                handles.append(None)  # a chain's later steps have new handles
                ref.schedule(start, label, deltas)
            elif op[0] == "cancel" and any(handles):
                targets = [i for i, handle in enumerate(handles) if handle]
                target = targets[op[1] % len(targets)]
                sim.cancel(handles[target])
                ref.cancelled.add(target)
            elif op[0] == "run":
                window["end"] = sim.now + op[1]
                before = len(ref_fired)
                executed.append(sim.run_for(op[1]))
                ref.run_until(ref.now + op[1], ref_fired)
                assert executed[-1] == len(ref_fired) - before
            assert sim.now == ref.now
            assert fired == ref_fired
        window["end"] = sim.now + 1000
        sim.run_for(1000)
        ref.run_until(ref.now + 1000, ref_fired)
        assert fired == ref_fired

    def test_refused_outside_a_run(self):
        sim = Simulator()
        assert not sim.advance_inline(0)
        assert not sim.advance_inline(10)
        assert sim.now == 0

    def test_never_into_the_past(self):
        sim = Simulator(start_time_ns=5)
        with pytest.raises(ValueError):
            sim.advance_inline(4)

    def test_same_instant_event_runs_first(self):
        """An event queued at ``t`` has a lower seq than the continuation
        would get, so the continuation must be scheduled behind it."""
        sim = Simulator()
        order = []

        def step():
            order.append(("step", sim.now))
            if sim.now == 0:
                assert not sim.advance_inline(10)
                sim.schedule_at(10, step)

        sim.schedule_at(0, step)
        sim.schedule_at(10, order.append, ("queued", 10))
        assert sim.run_until(20) == 3
        assert order == [("step", 0), ("queued", 10), ("step", 10)]

    def test_window_end_is_inclusive(self):
        sim = Simulator()
        results = []

        def step():
            results.append(sim.advance_inline(20))
            results.append(sim.advance_inline(21))

        sim.schedule_at(5, step)
        assert sim.run_until(20) == 2  # the event plus one inline advance
        assert results == [True, False]
        assert sim.now == 20

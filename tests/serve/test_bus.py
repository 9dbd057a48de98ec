"""EventBus unit suite: queue semantics, policies, poison, stall.

Everything here drives the bus primitives directly under
``asyncio.run`` — no fleet, no detectors — so each invariant is pinned
at the smallest surface that can violate it.  The fleet-level
counterparts live in test_bus_conformance.py / test_bus_chaos.py.
"""

import asyncio
import pickle

import pytest

from repro import faults
from repro.serve.bus import (
    BUS_POLICIES,
    BusStallError,
    Event,
    EventBus,
    SchedulingJitter,
    run_subscriber,
)

pytestmark = pytest.mark.bus


def run(coro):
    return asyncio.run(coro)


class TestSubscriptionBasics:
    def test_fifo_single_publisher(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t")
            for i in range(5):
                await bus.publish("t", i, publisher="p")
            return [(await sub.get()).payload for _ in range(5)]

        assert run(scenario()) == [0, 1, 2, 3, 4]

    def test_seq_numbers_per_publisher_topic(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", ("a", "b"))
            await bus.publish("a", "x", publisher="p1")
            await bus.publish("a", "y", publisher="p1")
            await bus.publish("a", "z", publisher="p2")
            await bus.publish("b", "w", publisher="p1")
            out = [await sub.get() for _ in range(4)]
            return [(e.publisher, e.topic, e.seq) for e in out]

        assert run(scenario()) == [
            ("p1", "a", 0), ("p1", "a", 1), ("p2", "a", 0), ("p1", "b", 0),
        ]

    def test_get_returns_none_after_close_and_drain(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t")
            await bus.publish("t", 1)
            sub.close()
            return [await sub.get(), await sub.get()]

        first, second = run(scenario())
        assert first.payload == 1
        assert second is None

    def test_get_batch_respects_limit_and_fifo(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t")
            for i in range(7):
                await bus.publish("t", i)
            first = await sub.get_batch(4)
            second = await sub.get_batch(4)
            return [e.payload for e in first], [e.payload for e in second]

        assert run(scenario()) == ([0, 1, 2, 3], [4, 5, 6])

    def test_get_batch_waits_for_fill_until_close(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t", capacity=8)
            taken = []

            async def consume():
                while (batch := await sub.get_batch(4, fill=4)) is not None:
                    taken.append([e.payload for e in batch])

            task = asyncio.ensure_future(consume())
            for i in range(6):
                await bus.publish("t", i)
                await asyncio.sleep(0)  # the consumer may run each time
            sub.close()
            await task
            return taken

        # A full batch once 4 are pending; the remainder at close.
        assert run(scenario()) == [[0, 1, 2, 3], [4, 5]]

    def test_get_batch_fill_is_capped_at_capacity(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t", capacity=2, policy="block")
            task = asyncio.ensure_future(sub.get_batch(8, fill=8))
            for i in range(2):
                await bus.publish("t", i)
            return [e.payload for e in await task]

        # fill=8 cannot be reached under a capacity-2 block queue.
        assert run(scenario()) == [0, 1]

    def test_publish_to_topic_without_subscribers_is_counted(self):
        async def scenario():
            bus = EventBus()
            assert await bus.publish("nobody", 1) is True
            return bus.stats()

        stats = run(scenario())
        assert stats["published"] == 1
        assert stats["delivered"] == 0

    def test_validation(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="policy"):
            bus.subscribe("s", "t", policy="bogus")
        with pytest.raises(ValueError, match="capacity"):
            bus.subscribe("s", "t", capacity=0)
        with pytest.raises(ValueError, match="handler"):
            bus.subscribe("s", "t", mode="direct")
        with pytest.raises(ValueError, match="mode"):
            bus.subscribe("s", "t", mode="sideways")
        with pytest.raises(ValueError, match="stall_timeout"):
            EventBus(stall_timeout=0)


class TestBackpressurePolicies:
    def test_block_policy_loses_nothing(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t", capacity=1, policy="block")
            received = []

            async def produce():
                for i in range(10):
                    await bus.publish("t", i)
                sub.close()

            task = asyncio.ensure_future(produce())
            # A deliberately slow consumer (two loop turns per get):
            # the capacity-1 queue stays full long enough that the
            # producer's deferred put observes it and block-waits.
            while True:
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                event = await sub.get()
                if event is None:
                    break
                received.append(event.payload)
            await task
            return received, sub.block_waits

        received, waits = run(scenario())
        assert received == list(range(10))
        assert waits > 0  # the full queue forced the publisher to wait

    def test_drop_oldest_evicts_exactly_the_oldest(self):
        async def scenario():
            bus = EventBus()
            evicted = []
            sub = bus.subscribe(
                "tap", "t", capacity=3, policy="drop-oldest",
                on_drop=lambda e: evicted.append(e.payload),
            )
            for i in range(8):
                await bus.publish("t", i)
            sub.close()
            kept = []
            while True:
                event = await sub.get()
                if event is None:
                    return evicted, kept
                kept.append(event.payload)

        evicted, kept = run(scenario())
        assert evicted == [0, 1, 2, 3, 4]  # the oldest, in order
        assert kept == [5, 6, 7]  # the newest survive

    def test_shed_discards_incoming_keeps_backlog(self):
        async def scenario():
            bus = EventBus()
            shed = []
            sub = bus.subscribe(
                "tap", "t", capacity=3, policy="shed",
                on_drop=lambda e: shed.append(e.payload),
            )
            for i in range(8):
                await bus.publish("t", i)
            sub.close()
            kept = []
            while True:
                event = await sub.get()
                if event is None:
                    return shed, kept
                kept.append(event.payload)

        shed, kept = run(scenario())
        assert kept == [0, 1, 2]  # queued data survives
        assert shed == [3, 4, 5, 6, 7]  # newest sacrificed
        assert set(BUS_POLICIES) == {"block", "drop-oldest", "shed"}

    def test_publish_sync_on_full_block_queue_forces_a_shed(self):
        bus = EventBus()
        sub = bus.subscribe("tap", "t", capacity=2, policy="block")
        for i in range(5):
            bus.publish_sync("t", i)
        assert sub.depth() == 2
        assert sub.shed == 3  # a sync publisher cannot wait
        assert bus.stats()["shed"] == 3

    def test_accounting_stats_balance(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t", capacity=4, policy="drop-oldest")
            for i in range(10):
                await bus.publish("t", i)
            drained = 0
            sub.close()
            while await sub.get() is not None:
                drained += 1
            return bus.stats(), drained

        stats, drained = run(scenario())
        assert stats["published"] == 10
        assert stats["delivered"] == drained == 4
        assert stats["dropped"] == 6
        assert stats["delivered"] + stats["dropped"] == stats["published"]


class TestStall:
    def test_blocked_publish_times_out_as_bus_stall(self):
        async def scenario():
            bus = EventBus(stall_timeout=0.05)
            bus.subscribe("dead", "t", capacity=1, policy="block")
            await bus.publish("t", 0)  # fills the queue
            await bus.publish("t", 1)  # nobody drains: must stall

        with pytest.raises(BusStallError) as excinfo:
            run(scenario())
        err = excinfo.value
        assert err.subscriber == "dead"
        assert err.topic == "t"
        assert err.timeout_s == pytest.approx(0.05)

    @pytest.mark.parametrize("stall_timeout", [30.0, None])
    def test_block_wait_counted_with_and_without_watchdog(
        self, stall_timeout
    ):
        async def scenario():
            bus = EventBus(stall_timeout=stall_timeout)
            blocked = []
            sub = bus.subscribe(
                "tap", "t", capacity=1, policy="block",
                on_block=lambda e: blocked.append(e.payload),
            )

            async def drain():
                while await sub.get() is not None:
                    pass

            task = asyncio.ensure_future(drain())
            for i in range(4):
                await bus.publish("t", i)  # no yield: the queue is full
            sub.close()
            await task
            return sub.block_waits, blocked

        # The watchdog must not hide a wait: every publish after the
        # first finds the capacity-1 queue full.
        assert run(scenario()) == (3, [1, 2, 3])

    def test_stall_error_survives_pickling(self):
        # Shard children re-raise through a ProcessPoolExecutor, which
        # round-trips the exception through pickle.
        err = BusStallError("scoring", "interval.observed", 30.0)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, BusStallError)
        assert clone.subscriber == "scoring"
        assert clone.topic == "interval.observed"
        assert clone.timeout_s == 30.0

    def test_no_watchdog_when_disabled(self):
        async def scenario():
            bus = EventBus(stall_timeout=None)
            sub = bus.subscribe("tap", "t", capacity=1, policy="block")
            await bus.publish("t", 0)

            async def drain_one():
                for _ in range(3):
                    await asyncio.sleep(0)
                await sub.get()

            task = asyncio.ensure_future(drain_one())
            await bus.publish("t", 1)  # waits for the drain, no stall
            await task
            return sub.depth()

        assert run(scenario()) == 1


class TestDirectAndPoison:
    def test_direct_handler_runs_inside_publish(self):
        async def scenario():
            bus = EventBus()
            seen = []
            bus.subscribe(
                "ctrl", "t", mode="direct", handler=lambda e: seen.append(e.payload)
            )
            await bus.publish("t", "x")
            return list(seen)

        assert run(scenario()) == ["x"]

    def test_crashed_direct_handler_poisons_not_raises(self):
        async def scenario():
            bus = EventBus()

            def boom(event):
                raise RuntimeError("handler died")

            sub = bus.subscribe("ctrl", "t", mode="direct", handler=boom)
            assert await bus.publish("t", "x") is True  # publish survives
            assert await bus.publish("t", "y") is True  # detached: no retry
            return bus.failures, sub.poisoned, bus.subscribers("t")

        failures, poisoned, listeners = run(scenario())
        assert poisoned is True
        assert listeners == []  # detached from the topic
        assert len(failures) == 1
        assert failures[0]["subscriber"] == "ctrl"
        assert "handler died" in failures[0]["error"]

    def test_run_subscriber_poisons_on_handler_crash(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t", capacity=8)

            def boom(event):
                raise ValueError("bad payload")

            task = asyncio.ensure_future(run_subscriber(bus, sub, boom))
            await bus.publish("t", 1)
            await task  # returns (degraded), does not hang or raise
            return bus.stats()["subscribers_poisoned"], sub.poisoned

        poisoned_count, poisoned = run(scenario())
        assert poisoned_count == 1
        assert poisoned is True

    def test_unsubscribe_stops_delivery(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t")
            await bus.publish("t", 1)
            bus.unsubscribe(sub)
            await bus.publish("t", 2)
            out = []
            while True:
                event = await sub.get()
                if event is None:
                    return out

                out.append(event.payload)

        assert run(scenario()) == [1]


class TestFaultGates:
    def test_publish_fault_retries_once_then_loses(self):
        # Probability 1.0 fires on both attempt tokens: event lost.
        plan = faults.FaultPlan(
            seed=3,
            sites={"bus.publish": faults.FaultSpec(probability=1.0, mode="raise")},
        )
        lost = []

        async def scenario():
            bus = EventBus()
            bus.on_publish_lost = lambda topic, payload, key: lost.append(key)
            sub = bus.subscribe("tap", "t")
            with faults.injected(plan):
                ok = await bus.publish("t", 1, key="dev-0@0")
            return ok, bus.stats(), sub.depth()

        ok, stats, depth = run(scenario())
        assert ok is False
        assert depth == 0
        assert stats["publish_lost"] == 1
        assert lost == ["dev-0@0"]

    def test_publish_fault_retry_can_recover(self):
        # Find a key where attempt #a0 fires but #a1 does not: the
        # retry recovers and nothing is lost.
        plan = faults.FaultPlan(
            seed=3,
            sites={"bus.publish": faults.FaultSpec(probability=0.5, mode="raise")},
        )
        key = next(
            k
            for k in (f"dev-0@{i}" for i in range(64))
            if plan.would_fire("bus.publish", f"t:{k}#a0")
            and not plan.would_fire("bus.publish", f"t:{k}#a1")
        )

        async def scenario():
            bus = EventBus()
            sub = bus.subscribe("tap", "t")
            with faults.injected(plan):
                ok = await bus.publish("t", 1, key=key)
            return ok, sub.depth(), bus.stats()["publish_lost"]

        ok, depth, publish_lost = run(scenario())
        assert ok is True
        assert depth == 1
        assert publish_lost == 0

    def test_deliver_fault_loses_for_that_subscription_only(self):
        plan = faults.FaultPlan(
            seed=3,
            sites={
                "bus.deliver": faults.FaultSpec(
                    probability=1.0, mode="raise", match="flaky"
                )
            },
        )
        dropped = []

        async def scenario():
            bus = EventBus()
            flaky = bus.subscribe(
                "flaky", "t", on_drop=lambda e: dropped.append(e.payload)
            )
            healthy = bus.subscribe("healthy", "t")
            with faults.injected(plan):
                await bus.publish("t", 7)
            return flaky.depth(), healthy.depth(), bus.stats()

        flaky_depth, healthy_depth, stats = run(scenario())
        assert flaky_depth == 0
        assert healthy_depth == 1
        assert stats["deliver_faults"] == 1
        assert dropped == [7]


class TestSchedulingJitter:
    def test_same_seed_same_interleaving(self):
        async def scenario(seed):
            jitter = SchedulingJitter(seed, amplitude=3)
            order = []

            async def actor(name):
                for i in range(10):
                    await jitter.point(name)
                    order.append((name, i))

            await asyncio.gather(actor("a"), actor("b"))
            return order

        assert run(scenario(5)) == run(scenario(5))

    def test_amplitude_zero_never_yields(self):
        async def scenario():
            jitter = SchedulingJitter(1, amplitude=0)
            await jitter.point("x")
            return True

        assert run(scenario()) is True

    def test_event_dataclass_is_frozen(self):
        event = Event(topic="t", payload=1, publisher="p", seq=0)
        with pytest.raises(Exception):
            event.seq = 1

"""Asyncio pub/sub event bus: the fleet control plane's spine.

:class:`EventBus` keeps ingestion, scoring, drift monitoring and
reporting out of one welded call chain: publishers emit
:class:`Event`\\ s onto named topics and each subscriber owns a
**bounded queue with its own backpressure policy**, so a slow consumer
degrades *itself* instead of the fleet.

Two delivery modes, chosen per subscription:

``queued`` (the data plane)
    Events land in the subscription's bounded deque and a consumer
    task drains them with ``await sub.get()`` /
    ``await sub.get_batch(n)``.  When the queue is full the policy
    decides what gives:

    * ``block`` — the publisher awaits until the consumer frees room
      (nothing is ever lost; each wait is counted in ``block_waits``
      and reported through ``on_block``; a wall-clock
      ``stall_timeout`` guards against a dead consumer and raises
      :class:`BusStallError`);
    * ``drop-oldest`` — the oldest pending event is evicted (bounded
      staleness; the eviction is surfaced through ``on_drop``);
    * ``shed`` — the *incoming* event is discarded and counted
      (bounded work; newest data is sacrificed, queued data survives).

``direct`` (the control plane)
    The handler runs synchronously inside ``publish``, before the
    publisher proceeds.  This trades asynchrony for determinism: the
    drift→recalibration feedback loop must apply a committed threshold
    *before the very next record is scored*, or the effective switch
    point would depend on queue depths and shard count.  Direct
    subscriptions are what keep recalibrated runs bit-identical across
    shard counts.

Determinism: the bus introduces no wall-clock or RNG dependence of its
own.  Under a fixed configuration, asyncio's ready-queue scheduling is
deterministic, so two runs produce identical event orders; the
property suite additionally stirs interleavings with a *seeded*
:class:`SchedulingJitter` (pure-hash ``sleep(0)`` yield bursts) to
prove the FIFO/loss/shed invariants hold under any schedule.

Fault sites (``repro.faults``): ``bus.publish`` (fires before fan-out;
one retry, then the event is lost and reported via
``on_publish_lost``), ``bus.deliver`` (per queued subscription; one
retry, then that subscription's ``on_drop`` runs), and
``subscriber.handle`` (fires in the consumer; an unhandled fault
**poisons** the subscriber — it is detached so publishers cannot block
on its dead queue, the failure is recorded for the failures manifest,
and the run degrades instead of deadlocking).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .. import faults, obs
from ..faults.plan import uniform_hash

__all__ = [
    "BUS_POLICIES",
    "BusStallError",
    "Event",
    "Subscription",
    "EventBus",
    "SchedulingJitter",
    "run_subscriber",
]

#: Backpressure policies a queued subscription accepts: ``block``
#: (wait for room), ``drop-oldest`` (evict the queued head) and
#: ``shed`` (discard the incoming event, keep the queued backlog).
BUS_POLICIES = ("block", "drop-oldest", "shed")


class BusStallError(RuntimeError):
    """A ``block``-policy publish waited longer than ``stall_timeout``.

    Raised only on wall-clock starvation — a consumer that stopped
    draining without dying (the deadlock the chaos suite manufactures).
    ``repro serve`` maps it to its own exit code.
    """

    def __init__(self, subscriber: str, topic: str, timeout_s: float):
        super().__init__(
            f"bus stall: subscriber {subscriber!r} stopped draining "
            f"topic {topic!r} (waited {timeout_s:g}s)"
        )
        self.subscriber = subscriber
        self.topic = topic
        self.timeout_s = timeout_s

    def __reduce__(self):
        # A stalled shard child re-raises in the parent through the
        # process pool; default exception pickling would replay
        # __init__ with the formatted message as the only argument.
        return (BusStallError, (self.subscriber, self.topic, self.timeout_s))


@dataclass(frozen=True)
class Event:
    """One published event.

    ``seq`` numbers events per ``(publisher, topic)`` pair — the unit
    the FIFO ordering guarantee (and its property test) is stated in.
    ``key`` is the event's shard-invariant fault token
    (``device@interval`` for interval topics), so fault decisions agree
    across shard counts.
    """

    topic: str
    payload: object
    publisher: str
    seq: int
    key: str = "-"


class Subscription:
    """One subscriber's end of the bus: a bounded deque + wakeups."""

    def __init__(
        self,
        bus: "EventBus",
        name: str,
        topics: Tuple[str, ...],
        capacity: int = 256,
        policy: str = "block",
        mode: str = "queued",
        handler: Optional[Callable[[Event], None]] = None,
        on_drop: Optional[Callable[[Event], None]] = None,
        on_block: Optional[Callable[[Event], None]] = None,
    ):
        if policy not in BUS_POLICIES:
            raise ValueError(
                f"unknown bus policy {policy!r}; choose from {BUS_POLICIES}"
            )
        if mode not in ("queued", "direct"):
            raise ValueError("mode must be 'queued' or 'direct'")
        if mode == "direct" and handler is None:
            raise ValueError("a direct subscription needs a handler")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.bus = bus
        self.name = name
        self.topics = topics
        self.capacity = capacity
        self.policy = policy
        self.mode = mode
        self.handler = handler
        self.on_drop = on_drop
        self.on_block = on_block
        self.closed = False
        self.poisoned = False
        self.delivered = 0
        self.dropped = 0  # drop-oldest evictions
        self.shed = 0  # shed-policy discards (+ forced sheds, see bus)
        self.block_waits = 0
        self._items: Deque[Event] = deque()
        #: Queue depth that wakes the waiting consumer (``get_batch``'s
        #: ``fill``; 1 otherwise).
        self._want = 1
        self._not_empty = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()

    # -- producer side -------------------------------------------------
    def _evict_or_shed(self, event: Event) -> bool:
        """Apply drop-oldest/shed when full; True = still enqueue."""
        if self.policy == "drop-oldest":
            oldest = self._items.popleft()
            self.dropped += 1
            self.bus._count_drop()
            if self.on_drop is not None:
                self.on_drop(oldest)
            return True
        # shed: the incoming event is the casualty.
        self.shed += 1
        self.bus._count_shed()
        if self.on_drop is not None:
            self.on_drop(event)
        return False

    async def _put(self, event: Event) -> None:
        if self.closed:
            return
        if len(self._items) >= self.capacity:
            if self.policy == "block":
                # Counted here, where the full queue is seen, before any
                # watchdog wrapper gets a chance to let the consumer run.
                self.block_waits += 1
                if self.on_block is not None:
                    self.on_block(event)
                await self.bus._wait_for_space(self, event)
            elif not self._evict_or_shed(event):
                return
        if self.closed:
            return
        self._append(event)

    def _append(self, event: Event) -> None:
        self._items.append(event)
        if len(self._items) >= self._want:
            self._not_empty.set()

    async def _until_space(self) -> None:
        while len(self._items) >= self.capacity and not self.closed:
            self._space.clear()
            await self._space.wait()

    def _put_nowait(self, event: Event) -> None:
        """Synchronous enqueue (``publish_sync``); a full ``block``
        queue degrades to a counted *forced shed* — a sync publisher
        cannot wait."""
        if self.closed:
            return
        if len(self._items) >= self.capacity:
            if self.policy == "block":
                self.shed += 1
                self.bus._count_shed()
                if self.on_drop is not None:
                    self.on_drop(event)
                return
            if not self._evict_or_shed(event):
                return
        self._append(event)

    # -- consumer side -------------------------------------------------
    async def _wait_depth(self, depth: int) -> bool:
        """Wait until ``depth`` events are queued (at most ``capacity``)
        or the queue closes; False once closed and drained."""
        self._want = min(depth, self.capacity)
        while len(self._items) < self._want and not self.closed:
            self._not_empty.clear()
            await self._not_empty.wait()
        self._want = 1
        return bool(self._items)

    async def get(self) -> Optional[Event]:
        """Next event, FIFO; ``None`` once closed and drained."""
        batch = await self.get_batch(1)
        return batch[0] if batch else None

    async def get_batch(
        self, limit: int, fill: int = 1
    ) -> Optional[List[Event]]:
        """Up to ``limit`` events (≥ 1), FIFO, taken once ``fill`` are
        queued — or whatever is left once the queue closes.  ``fill``
        is capped at ``capacity`` (a fuller queue cannot exist); the
        default takes whatever is immediately available.  ``None`` once
        closed and drained."""
        if not await self._wait_depth(fill):
            return None
        batch = []
        while len(batch) < limit and self._items:
            batch.append(self._items.popleft())
            self.delivered += 1
            self.bus._count_delivered()
        if len(self._items) < self.capacity:
            self._space.set()
        return batch

    def depth(self) -> int:
        return len(self._items)

    def close(self) -> None:
        """No further deliveries; consumers drain the backlog then get
        ``None``.  Wakes blocked producers and waiting consumers."""
        self.closed = True
        self._not_empty.set()
        self._space.set()


class SchedulingJitter:
    """Seeded cooperative-yield bursts for interleaving exploration.

    ``await point(site)`` yields the event loop 0..``amplitude`` times,
    the count a pure hash of ``(seed, site, call ordinal)`` — so a
    hypothesis-drawn seed deterministically reproduces one schedule,
    and different seeds explore different ones.
    """

    def __init__(self, seed: int, amplitude: int = 2):
        if amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        self.seed = seed
        self.amplitude = amplitude
        self._calls = 0

    async def point(self, site: str) -> None:
        self._calls += 1
        burst = int(
            uniform_hash(self.seed, site, str(self._calls))
            * (self.amplitude + 1)
        )
        for _ in range(burst):
            await asyncio.sleep(0)


class EventBus:
    """Topic-keyed pub/sub with per-subscriber bounded queues."""

    def __init__(
        self,
        stall_timeout: Optional[float] = 30.0,
        jitter: Optional[SchedulingJitter] = None,
        shard: int = 0,
    ):
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive (or None)")
        self.stall_timeout = stall_timeout
        self.jitter = jitter
        self.shard = shard
        self.published = 0
        self.delivered = 0
        self.dropped = 0
        self.shed = 0
        self.publish_lost = 0
        self.deliver_faults = 0
        #: Poisoned-subscriber records — the failures-manifest payload.
        self.failures: List[dict] = []
        self.on_publish_lost: Optional[Callable[[str, object, str], None]] = None
        self._subs: Dict[str, List[Subscription]] = {}
        self._seq: Dict[Tuple[str, str], int] = {}
        registry = obs.metrics()
        self._metric_published = registry.counter("bus.published")
        self._metric_delivered = registry.counter("bus.delivered")
        self._metric_dropped = registry.counter("bus.dropped")
        self._metric_shed = registry.counter("bus.shed")
        self._metric_poisoned = registry.counter("bus.subscribers_poisoned")
        self._metric_publish_lost = registry.counter("bus.publish_lost")
        self._log = obs.logger()

    # -- wiring --------------------------------------------------------
    def subscribe(
        self,
        name: str,
        topics,
        capacity: int = 256,
        policy: str = "block",
        mode: str = "queued",
        handler: Optional[Callable[[Event], None]] = None,
        on_drop: Optional[Callable[[Event], None]] = None,
        on_block: Optional[Callable[[Event], None]] = None,
    ) -> Subscription:
        topics = (topics,) if isinstance(topics, str) else tuple(topics)
        sub = Subscription(
            self, name, topics, capacity=capacity, policy=policy,
            mode=mode, handler=handler, on_drop=on_drop, on_block=on_block,
        )
        for topic in topics:
            self._subs.setdefault(topic, []).append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        for topic in sub.topics:
            listeners = self._subs.get(topic, [])
            if sub in listeners:
                listeners.remove(sub)
        sub.close()

    def subscribers(self, topic: str) -> List[Subscription]:
        return list(self._subs.get(topic, []))

    # -- counters (subscription callbacks) -----------------------------
    def _count_delivered(self) -> None:
        self.delivered += 1
        self._metric_delivered.inc()

    def _count_drop(self) -> None:
        self.dropped += 1
        self._metric_dropped.inc()

    def _count_shed(self) -> None:
        self.shed += 1
        self._metric_shed.inc()

    # -- publishing ----------------------------------------------------
    def _gate(self, site: str, token: str) -> bool:
        """Evaluate a bus fault site with one attempt-tagged retry.

        Returns True when the operation may proceed.  ``raise``-mode
        faults are absorbed here: the first firing is retried under an
        attempt-suffixed token; a second firing abandons the operation.
        """
        for attempt in (0, 1):
            try:
                faults.check(site, token=f"{token}#a{attempt}")
                return True
            except faults.FaultError:
                continue
        return False

    async def publish(
        self, topic: str, payload: object, publisher: str = "-", key: str = "-"
    ) -> bool:
        """Publish onto ``topic``; False when a fault lost the event."""
        if self.jitter is not None:
            await self.jitter.point(f"publish:{topic}")
        if not self._gate("bus.publish", f"{topic}:{key}"):
            self._publish_lost(topic, payload, key)
            return False
        event = self._make_event(topic, payload, publisher, key)
        for sub in self.subscribers(topic):
            if sub.mode == "direct":
                self._dispatch_direct(sub, event)
            elif self._gate("bus.deliver", f"{sub.name}:{topic}:{key}"):
                await sub._put(event)
            else:
                self._deliver_lost(sub, event)
        return True

    def publish_sync(
        self, topic: str, payload: object, publisher: str = "-", key: str = "-"
    ) -> bool:
        """Synchronous publish — usable from inside a direct handler or
        a scoring callback.  Queued ``block`` subscriptions cannot be
        waited on here; a full one forces a counted shed."""
        if not self._gate("bus.publish", f"{topic}:{key}"):
            self._publish_lost(topic, payload, key)
            return False
        event = self._make_event(topic, payload, publisher, key)
        for sub in self.subscribers(topic):
            if sub.mode == "direct":
                self._dispatch_direct(sub, event)
            elif self._gate("bus.deliver", f"{sub.name}:{topic}:{key}"):
                sub._put_nowait(event)
            else:
                self._deliver_lost(sub, event)
        return True

    def _make_event(
        self, topic: str, payload: object, publisher: str, key: str
    ) -> Event:
        seq = self._seq.get((publisher, topic), 0)
        self._seq[(publisher, topic)] = seq + 1
        self.published += 1
        self._metric_published.inc()
        return Event(
            topic=topic, payload=payload, publisher=publisher, seq=seq, key=key
        )

    def _publish_lost(self, topic: str, payload: object, key: str) -> None:
        self.publish_lost += 1
        self._metric_publish_lost.inc()
        if self._log.enabled:
            self._log.event(
                "bus.publish.lost", level="warn", shard=self.shard,
                topic=topic, key=key,
            )
        if self.on_publish_lost is not None:
            self.on_publish_lost(topic, payload, key)

    def _deliver_lost(self, sub: Subscription, event: Event) -> None:
        self.deliver_faults += 1
        self._count_drop()
        if self._log.enabled:
            self._log.event(
                "bus.deliver.lost", level="warn", shard=self.shard,
                topic=event.topic, key=event.key, subscriber=sub.name,
            )
        if sub.on_drop is not None:
            sub.on_drop(event)

    async def _wait_for_space(self, sub: Subscription, event: Event) -> None:
        """Wait until a full ``block`` queue has room (or closes), under
        the stall watchdog when one is set."""
        if self.stall_timeout is None:
            await sub._until_space()
            return
        try:
            await asyncio.wait_for(
                sub._until_space(), timeout=self.stall_timeout
            )
        except asyncio.TimeoutError:
            if self._log.enabled:
                self._log.event(
                    "bus.stall", level="error", shard=self.shard,
                    subscriber=sub.name, topic=event.topic,
                    depth=sub.depth(), timeout_s=self.stall_timeout,
                )
            raise BusStallError(
                sub.name, event.topic, self.stall_timeout
            ) from None

    # -- consumption / failure handling --------------------------------
    def _dispatch_direct(self, sub: Subscription, event: Event) -> None:
        if sub.poisoned or sub.closed:
            return
        try:
            faults.check(
                "subscriber.handle",
                token=f"{sub.name}:{event.topic}:{event.key}",
            )
            sub.handler(event)
            sub.delivered += 1
            self._count_delivered()
        except Exception as exc:
            self.poison(sub, event, exc)

    def poison(
        self, sub: Subscription, event: Optional[Event], exc: Exception
    ) -> None:
        """Record a crashed subscriber and detach it from the bus.

        Detaching is what turns "subscriber died" into degraded health
        instead of a deadlock: publishers can no longer block on the
        dead queue, and the failure lands in the manifest.
        """
        sub.poisoned = True
        self.unsubscribe(sub)
        self._metric_poisoned.inc()
        self.failures.append(
            {
                "subscriber": sub.name,
                "topic": event.topic if event is not None else None,
                "key": event.key if event is not None else None,
                "error": f"{type(exc).__name__}: {exc}",
                "shard": self.shard,
                "pending": sub.depth(),
            }
        )
        if self._log.enabled:
            self._log.event(
                "bus.subscriber.poisoned", level="error", shard=self.shard,
                subscriber=sub.name,
                topic=event.topic if event is not None else "-",
                error=f"{type(exc).__name__}: {exc}",
            )

    def close(self) -> None:
        for subs in self._subs.values():
            for sub in subs:
                sub.close()

    def stats(self) -> dict:
        """The bus's accounting snapshot (rides in ``FleetReport.bus``)."""
        return {
            "published": self.published,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "shed": self.shed,
            "publish_lost": self.publish_lost,
            "deliver_faults": self.deliver_faults,
            "subscribers_poisoned": len(self.failures),
        }


async def run_subscriber(
    bus: EventBus,
    sub: Subscription,
    handler: Callable[[Event], None],
    jitter: Optional[SchedulingJitter] = None,
) -> None:
    """Drain a queued subscription one event at a time until closed.

    An exception from ``handler`` (including a fired
    ``subscriber.handle`` fault) poisons the subscription and returns —
    the bus keeps running degraded.
    """
    while True:
        event = await sub.get()
        if event is None:
            return
        if jitter is not None:
            await jitter.point(f"handle:{sub.name}")
        try:
            faults.check(
                "subscriber.handle",
                token=f"{sub.name}:{event.topic}:{event.key}",
            )
            handler(event)
        except Exception as exc:
            bus.poison(sub, event, exc)
            return

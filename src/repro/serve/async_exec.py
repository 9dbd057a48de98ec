"""The shard executor: one shard's streams on the event bus.

One shard, one event loop, one :class:`~repro.serve.bus.EventBus`,
four independent parties wired by topics:

* **ingestion** — pulls each device's :class:`DeviceStream` on its own
  cadence and publishes ``interval.observed``.  Yields to the loop
  once per fleet step (the step barrier), so drop-oldest and shed
  measure real per-step pressure;
* **scoring** — a *queued* subscriber draining ``interval.observed``
  through :meth:`ShardWorker.score_batch` in **full batches**: it
  takes a batch once ``min(batch_size, queue_capacity)`` records are
  pending, or whatever is left when the queue closes.  The wait is
  bounded by ``batch_size`` records, not by wall clock, and every
  verdict carries its own record's simulated time; fixed-shape padded
  kernels make each score independent of its batch-mates, so batch
  composition never reaches a digest.  The queue carries the
  configured backpressure policy (block / drop-oldest / shed) and
  emits the ``serve.queue.*``, ``serve.batches``, ``serve.batch_fill``
  and per-shard ``serve.shard.queue_depth`` /
  ``serve.shard.batch_latency_us`` series;
* **drift + recalibration** — a *direct* subscriber on
  ``interval.scored``: the controller runs synchronously inside the
  scoring callback, so a canary commit swaps the threshold before the
  device's next record is judged — at the same per-record point on
  every shard count, which is what keeps recalibrated runs
  bit-identical across shards;
* **reporting** — a queued ``shed``-policy subscriber tallying a
  streaming summary from ``interval.scored`` / ``device.alarm``; under
  pressure it sacrifices its own freshness, never the data plane.

Accounting invariant: every record the simulator emits lands in
exactly one of *scored*, *skipped* or *dropped* — publish-loss and
deliver-loss faults route the casualty to
:meth:`ShardWorker.record_dropped` just like a queue eviction, so
``emitted == scored + skipped + dropped`` holds under bus faults too.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from math import ceil
from typing import Optional, Sequence, Tuple

from .. import faults, obs
from ..obs.context import trace_args
from ..obs.registry import log_buckets
from ..sim.fleet import DeviceSpec, DeviceStream
from .bus import Event, EventBus, SchedulingJitter, run_subscriber
from .recalibrate import RecalibrationController
from .worker import OK, ScoredInterval, ShardWorker

__all__ = [
    "cadence_for",
    "scale_spec_for_cadence",
    "emitted_for_cadence",
    "run_shard_async",
]


def cadence_for(spec_index: int, cadences) -> int:
    """The fleet-step cadence assigned to device ``spec_index``."""
    if not cadences:
        return 1
    return int(cadences[spec_index % len(cadences)])


def emitted_for_cadence(intervals: int, cadence: int) -> int:
    """Records a device emits over ``intervals`` fleet steps: it ticks
    on steps 1, 1+c, 1+2c, … → ⌈intervals / c⌉."""
    return ceil(intervals / cadence)


def scale_spec_for_cadence(spec: DeviceSpec, cadence: int, intervals: int) -> DeviceSpec:
    """Rescale a spec's attack schedule into its cadence's ordinal space.

    ``build_fleet_specs`` places injection/revert in *fleet-step*
    ordinals (cadence 1).  A device ticking every ``cadence`` steps
    emits ⌈intervals/c⌉ records, and its stream schedules the attack by
    emitted ordinal — so the schedule divides down, keeping the attack
    at the same fraction of the device's (shorter) stream.
    """
    if cadence == 1 or spec.inject_interval is None:
        return spec
    emitted = emitted_for_cadence(intervals, cadence)
    inject = min(max(1, spec.inject_interval // cadence), emitted - 1)
    revert = spec.revert_interval
    if revert is not None:
        revert = max(revert // cadence, inject + 1)
        if revert >= emitted - 1:
            revert = None  # too short a tail to revert inside: one-way
    return replace(spec, inject_interval=inject, revert_interval=revert)


async def run_shard_async(
    shard_index: int,
    specs: Sequence[DeviceSpec],
    worker: ShardWorker,
    config,
    writer=None,
    jitter: Optional[SchedulingJitter] = None,
) -> Tuple[dict, int]:
    """Run one shard's full stream on the event bus.

    Returns ``(stats, sim_time_ns)``; per-device results accumulate in
    ``worker``.  ``config`` is a
    :class:`~repro.serve.service.ServeConfig` (duck-typed to avoid the
    import cycle).
    """
    bus = EventBus(
        stall_timeout=config.stall_timeout, jitter=jitter, shard=shard_index
    )
    queue = _QueueTelemetry(shard_index)

    # -- data plane ----------------------------------------------------
    def on_drop(event: Event) -> None:
        queue.dropped(event.payload, scoring_sub.depth())
        worker.record_dropped(event.payload)

    scoring_sub = bus.subscribe(
        "scoring",
        "interval.observed",
        capacity=config.queue_capacity,
        policy=config.policy,
        on_drop=on_drop,
        on_block=lambda event: queue.stalled(
            event.payload, scoring_sub.depth()
        ),
    )
    summary = {"scored": 0, "flagged": 0, "alarms": 0}
    reporting_sub = bus.subscribe(
        "reporting",
        ("interval.scored", "device.alarm"),
        capacity=max(config.queue_capacity, 1024),
        policy="shed",
    )

    # -- control plane (direct: deterministic per-record dispatch) -----
    controller = None
    if config.recalibration.enabled:
        controller = RecalibrationController(
            config.recalibration, worker, bus=bus, shard=shard_index
        )
        bus.subscribe(
            "recalibrate",
            "interval.scored",
            mode="direct",
            handler=lambda event: controller.on_scored(event.payload),
        )

    # A record lost at publish never reached scoring; charge it to its
    # device so the emitted == scored + skipped + dropped ledger holds.
    def on_publish_lost(topic: str, payload, key: str) -> None:
        if topic == "interval.observed":
            worker.record_dropped(payload)

    bus.on_publish_lost = on_publish_lost

    # Scored records flow back onto the bus synchronously, from inside
    # score_batch — a direct recalibration commit therefore lands
    # before the device's next record, even mid-batch.
    def on_scored(scored: ScoredInterval) -> None:
        key = f"{scored.device_id}@{scored.interval_index}"
        publisher = f"worker-{shard_index}"
        bus.publish_sync("interval.scored", scored, publisher=publisher, key=key)
        if scored.alarm:
            bus.publish_sync("device.alarm", scored, publisher=publisher, key=key)

    worker.on_scored = on_scored

    # -- tasks ---------------------------------------------------------
    submitted = 0

    async def ingest() -> int:
        nonlocal submitted
        streams = [DeviceStream(spec) for spec in specs]
        sim_time_ns = 0
        publisher = f"ingest-{shard_index}"
        for step in range(1, config.intervals + 1):
            for stream in streams:
                cadence = cadence_for(stream.spec.index, config.cadences)
                if (step - 1) % cadence:
                    continue
                record = stream.next_interval()
                sim_time_ns = record.time_ns
                submitted += 1
                queue.submitted()
                await bus.publish(
                    "interval.observed",
                    record,
                    publisher=publisher,
                    key=f"{record.device_id}@{record.interval_index}",
                )
            queue.depth(scoring_sub.depth())
            if writer is not None:
                writer.maybe_write(step, sim_time_ns)
            # Step barrier: hand the loop to scoring (once a full batch
            # is pending) and reporting, so drop-oldest/shed measure
            # real per-step pressure.
            await asyncio.sleep(0)
        return sim_time_ns

    async def score() -> None:
        while True:
            batch = await scoring_sub.get_batch(
                config.batch_size, fill=config.batch_size
            )
            if batch is None:
                return
            if jitter is not None:
                await jitter.point("score")
            records = [event.payload for event in batch]
            first = records[0]
            try:
                faults.check(
                    "subscriber.handle",
                    token=(
                        f"scoring:{first.device_id}@{first.interval_index}"
                    ),
                )
                queue.score(worker, records)
            except Exception as exc:
                bus.poison(scoring_sub, batch[0], exc)
                return

    def handle_report(event) -> None:
        if event.topic == "interval.scored":
            summary["scored"] += 1
            if event.payload.flag != OK:
                summary["flagged"] += 1
        else:
            summary["alarms"] += 1

    score_task = asyncio.ensure_future(score())
    report_task = asyncio.ensure_future(
        run_subscriber(bus, reporting_sub, handle_report, jitter=jitter)
    )
    try:
        sim_time_ns = await ingest()
        # Shutdown cascade: stop deliveries to scoring, let it drain its
        # backlog, then let reporting drain what scoring just published.
        scoring_sub.close()
        await score_task
        reporting_sub.close()
        await report_task
    finally:
        for task in (score_task, report_task):
            if not task.done():
                task.cancel()
        bus.close()
        worker.on_scored = None

    bus_stats = bus.stats()
    bus_stats["reporting"] = dict(summary)
    bus_stats["failures"] = list(bus.failures)
    if controller is not None:
        bus_stats["recalibration"] = controller.stats()
    stats = {
        "submitted": submitted,
        "dropped": sum(s.dropped for s in worker.states.values()),
        "block_stalls": scoring_sub.block_waits,
        "bus": bus_stats,
    }
    return stats, sim_time_ns


class _QueueTelemetry:
    """The scoring queue's ``serve.*`` series and log events."""

    def __init__(self, shard: int):
        self.shard = shard
        registry = obs.metrics()
        self._emitted = registry.counter("serve.intervals_emitted")
        self._submitted = registry.counter("serve.queue.submitted")
        self._dropped = registry.counter("serve.queue.dropped")
        self._stalls = registry.counter("serve.queue.block_stalls")
        self._depth = registry.gauge("serve.queue.depth")
        self._batches = registry.counter("serve.batches")
        self._fill = registry.histogram(
            "serve.batch_fill", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        # Per-shard labelled series: queue depth for the dashboard and
        # wall-clock batch scoring latency for p50/p95/p99 per shard.
        label = str(shard)
        self._shard_depth = registry.gauge_family(
            "serve.shard.queue_depth", ("shard",)
        ).labels(shard=label)
        self._latency = registry.histogram_family(
            "serve.shard.batch_latency_us",
            ("shard",),
            buckets=log_buckets(1.0, 1_000_000.0),
        ).labels(shard=label)
        self._log = obs.logger()
        self._tracer = obs.tracer()

    def submitted(self) -> None:
        self._emitted.inc()
        self._submitted.inc()

    def depth(self, depth: int) -> None:
        """Pending records at a fleet-step barrier."""
        self._depth.set(depth)
        self._shard_depth.set(depth)

    def score(self, worker, records) -> None:
        """Score one batch through ``worker``, timing it."""
        self._batches.inc()
        self._fill.observe(len(records))
        if self._latency.enabled:
            start = time.perf_counter_ns()
            worker.score_batch(records)
            self._latency.observe((time.perf_counter_ns() - start) / 1_000.0)
        else:
            worker.score_batch(records)

    def stalled(self, record, depth: int) -> None:
        self._stalls.inc()
        if self._log.enabled:
            self._log.event(
                "serve.queue.stall",
                level="warn",
                device_id=record.device_id,
                shard=self.shard,
                sim_time_ns=record.time_ns,
                trace=record.trace,
                depth=depth,
            )

    def dropped(self, record, depth: int) -> None:
        self._dropped.inc()
        if not (self._log.enabled or self._tracer.enabled):
            return
        span = (
            record.trace.child("queue.drop")
            if record.trace is not None
            else None
        )
        self._log.event(
            "serve.queue.drop",
            level="warn",
            device_id=record.device_id,
            shard=self.shard,
            sim_time_ns=record.time_ns,
            trace=span,
            interval=record.interval_index,
            depth=depth,
        )
        self._tracer.instant(
            "queue.drop",
            record.time_ns,
            category="serve",
            args=trace_args(
                span,
                status="dropped",
                device_id=record.device_id,
                interval=record.interval_index,
            ),
            track=record.device_index,
        )

"""The fleet service: wiring simulator → event bus → workers → report.

:class:`FleetService` is the long-running entry point behind
``repro serve``.  One run:

1. expands ``(devices, seed)`` into deterministic
   :class:`~repro.sim.fleet.DeviceSpec`\\ s;
2. resolves every needed profile detector once, in the parent, through
   the :class:`~repro.serve.registry.DetectorRegistry` (artifact-cache
   backed) and exports the fitted parameters;
3. partitions devices across ``shards`` (``index % shards``) and runs
   each shard — in-process for ``shards == 1``, in a
   ``ProcessPoolExecutor`` otherwise, whose children each get cores ÷
   shards BLAS threads
   (:func:`~repro.kernels.blas_threads.capped_process_pool`).  A shard
   runs its devices' streams on one :class:`~repro.serve.bus.EventBus`
   (:func:`~repro.serve.async_exec.run_shard_async`): records flow
   through the scoring subscriber's bounded backpressure queue and
   are scored in full, fixed-shape cross-device batches;
4. merges the per-device reports into one :class:`FleetReport`.

Because a device's stream is a pure function of its spec, detectors
are shipped bit-exactly, and fixed-shape batching makes each record's
score independent of its batch-mates, the merged report is
**bit-identical across shard counts** — ``--shards 1`` and
``--shards 4`` on the same seed produce the same per-device digests
and the same fleet digest.  (Under a drop-oldest or shed queue that
overflows, the *set of dropped records* is shard-local load shedding
and may differ; the scores of whatever was scored still match.)
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults, kernels, obs
from ..faults.plan import FaultPlan
from ..kernels.blas_threads import capped_process_pool
from ..learn.ensemble import EnsembleConfig, check_modality
from ..obs.manifest import to_jsonable
from ..obs.snapshots import SnapshotWriter
from ..pipeline.cache import ArtifactCache
from ..pipeline.stages import SCENARIOS
from ..sim.fleet import build_fleet_specs
from .async_exec import cadence_for, run_shard_async, scale_spec_for_cadence
from .bus import BUS_POLICIES
from .drift import DriftMonitor, DriftPolicy
from .recalibrate import RecalibrationPolicy
from .registry import DetectorRegistry, FleetTrainSpec
from .report import DeviceReport, FleetReport
from .worker import ShardWorker

__all__ = ["ServeConfig", "TelemetryConfig", "FleetService"]

#: Trace categories the fleet service keeps by default: fleet-layer
#: events only.  The platform simulator's per-tick events would put a
#: 60-second soak trace in the hundreds of megabytes.
SERVE_TRACE_CATEGORIES = ("serve", "alarm")


@dataclass(frozen=True)
class TelemetryConfig:
    """Which telemetry the fleet run carries, and where it lands.

    Picklable and shipped to shard processes: a shard child enables a
    fresh ``repro.obs`` stack from this config, runs against it, and
    returns the collected payload (metrics snapshot, trace events,
    log records) for the parent to merge.  ``disabled()`` is the
    default — telemetry stays strictly opt-in, preserving the PR-1
    no-op-twin overhead contract.
    """

    metrics: bool = False
    tracing: bool = False
    logging: bool = False
    metrics_dir: Optional[str] = None
    metrics_interval: Optional[int] = None
    trace_categories: Optional[Tuple[str, ...]] = SERVE_TRACE_CATEGORIES

    @property
    def any_enabled(self) -> bool:
        return self.metrics or self.tracing or self.logging

    @classmethod
    def disabled(cls) -> "TelemetryConfig":
        return cls()

    @classmethod
    def from_current(cls, **overrides) -> "TelemetryConfig":
        """Mirror the parent process's live ``repro.obs`` state."""
        tracer = obs.tracer()
        categories = getattr(tracer, "categories", None)
        fields_ = dict(
            metrics=obs.metrics().enabled,
            tracing=tracer.enabled,
            logging=obs.logger().enabled,
            trace_categories=tuple(categories) if categories else None,
        )
        fields_.update(overrides)
        return cls(**fields_)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a fleet serving run."""

    devices: int = 8
    shards: int = 1
    intervals: int = 100
    policy: str = "block"
    queue_capacity: int = 128
    batch_size: int = 32
    p_percent: float = 1.0
    consecutive_for_alarm: int = 3
    seed: int = 0
    profiles: Tuple[str, ...] = ("baseline", "rtos", "netload")
    attacked_devices: int = 0
    attack_scenarios: Tuple[str, ...] = tuple(sorted(SCENARIOS))
    train: FleetTrainSpec = field(default_factory=FleetTrainSpec)
    cache_dir: Optional[str] = None
    use_cache: bool = True
    keep_densities: bool = False
    drift: DriftPolicy = field(default_factory=DriftPolicy)
    #: Scoring mode: "mhm" (default — reports and digests identical to
    #: earlier single-modality builds), "contexts", or "ensemble".
    modality: str = "mhm"
    #: How ``p_percent`` splits between the two channels under
    #: "ensemble", and how their verdicts fuse.
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    #: Compatibility field: the event bus ("async") is the only shard
    #: executor.  The value is recorded in the report, never digested.
    executor: str = "async"
    #: Heterogeneous device cadences: device *i* emits every
    #: ``cadences[i % len(cadences)]`` fleet steps.  ``None`` means
    #: every device ticks every step.
    cadences: Optional[Tuple[int, ...]] = None
    #: Applied hot detector swap: drift proposals flow through a
    #: canary trial and commit per-device thresholds.
    recalibration: RecalibrationPolicy = field(
        default_factory=RecalibrationPolicy
    )
    #: Wall-clock seconds a block-policy publish may wait on a stuck
    #: subscriber before the run aborts with a BusStallError (exit
    #: code 8 from the CLI).  ``None`` disables the watchdog.
    stall_timeout: Optional[float] = 30.0

    def __post_init__(self) -> None:
        check_modality(self.modality)
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if not 1 <= self.shards <= self.devices:
            raise ValueError("shards must be in [1, devices]")
        if self.intervals < 1:
            raise ValueError("intervals must be >= 1")
        if self.executor != "async":
            raise ValueError(
                f"executor {self.executor!r} is not available: the "
                "lockstep executor was removed, and the event bus "
                "('async') is the only shard executor"
            )
        if self.batch_size < 1 or self.queue_capacity < 1:
            raise ValueError("batch_size and queue_capacity must be >= 1")
        if self.policy not in BUS_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.policy!r}; "
                f"choose from {BUS_POLICIES}"
            )
        if self.cadences is not None:
            if not self.cadences:
                raise ValueError("cadences must be non-empty")
            if any(int(c) < 1 for c in self.cadences):
                raise ValueError("every cadence must be >= 1")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive (or None)")
        if self.consecutive_for_alarm < 1:
            raise ValueError("consecutive_for_alarm must be >= 1")
        if not 0 < self.p_percent < 100:
            raise ValueError("p_percent must be in (0, 100)")


def _run_shard(
    shard_index: int,
    specs: Sequence,
    fleet_payload: Dict[str, dict],
    config: ServeConfig,
    fault_plan: Optional[FaultPlan],
    telemetry: Optional[TelemetryConfig] = None,
    in_process: bool = True,
) -> Tuple[List[DeviceReport], Dict[str, int], Optional[dict]]:
    """One shard's full run (module-level: picklable for worker pools).

    With ``in_process=True`` (the ``shards == 1`` path) the shard runs
    against the parent's live instruments and returns no telemetry
    payload.  In a pool child (``in_process=False``) a fresh obs stack
    is enabled from ``telemetry``; the collected metrics snapshot,
    trace events and log records come back as the third return value
    for the parent to merge — instruments don't cross process
    boundaries, payloads do.
    """
    telemetry = telemetry if telemetry is not None else TelemetryConfig.disabled()
    if not in_process and telemetry.any_enabled:
        obs.enable(
            with_metrics=telemetry.metrics,
            with_tracing=telemetry.tracing,
            with_logging=telemetry.logging,
            trace_categories=telemetry.trace_categories,
        )
    writer = None
    if telemetry.metrics and telemetry.metrics_dir:
        writer = SnapshotWriter(
            telemetry.metrics_dir,
            shard=shard_index,
            interval=telemetry.metrics_interval,
            meta={"devices": len(specs), "seed": config.seed},
        )
    log = obs.logger()
    if log.enabled:
        log.event(
            "serve.shard.start",
            shard=shard_index,
            seed=config.seed,
            devices=len(specs),
        )
    try:
        with faults.injected(fault_plan):
            detectors, context_detectors = DetectorRegistry.from_fleet_payload(
                fleet_payload
            )
            worker = ShardWorker(
                detectors,
                specs,
                p_percent=config.p_percent,
                consecutive_for_alarm=config.consecutive_for_alarm,
                batch_pad=config.batch_size,
                drift=DriftMonitor(config.drift, shard=shard_index),
                shard=shard_index,
                modality=config.modality,
                context_detectors=context_detectors,
                ensemble=config.ensemble,
            )
            stats, sim_time_ns = asyncio.run(
                run_shard_async(
                    shard_index, specs, worker, config, writer=writer
                )
            )
            reports = [
                worker.device_report(
                    spec,
                    shard_index,
                    keep_densities=config.keep_densities,
                    cadence=cadence_for(spec.index, config.cadences),
                )
                for spec in specs
            ]
        if log.enabled:
            log.event(
                "serve.shard.done",
                shard=shard_index,
                sim_time_ns=sim_time_ns,
                submitted=stats["submitted"],
                dropped=stats["dropped"],
                block_stalls=stats["block_stalls"],
            )
        if writer is not None:
            writer.write_final(config.intervals, sim_time_ns)
        payload = None
        if not in_process and telemetry.any_enabled:
            payload = {
                "shard": shard_index,
                "metrics": (
                    to_jsonable(obs.metrics().snapshot())
                    if telemetry.metrics
                    else None
                ),
                "trace_events": (
                    list(obs.tracer().events) if telemetry.tracing else None
                ),
                "log_records": (
                    obs.logger().records() if telemetry.logging else None
                ),
            }
        return reports, stats, payload
    finally:
        if not in_process and telemetry.any_enabled:
            obs.disable()


class FleetService:
    """Runs a fleet serving session and produces its report."""

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        fault_plan: Optional[FaultPlan] = None,
        telemetry: Optional[TelemetryConfig] = None,
    ):
        self.config = config
        self.fault_plan = fault_plan
        self.telemetry = telemetry

    def build_specs(self):
        config = self.config
        return build_fleet_specs(
            devices=config.devices,
            intervals=config.intervals,
            root_seed=config.seed,
            profiles=config.profiles,
            attacked_devices=config.attacked_devices,
            attack_scenarios=config.attack_scenarios,
        )

    def _cache(self) -> Optional[ArtifactCache]:
        if not self.config.use_cache:
            return None
        return ArtifactCache(self.config.cache_dir)

    def run(self) -> FleetReport:
        config = self.config
        telemetry = (
            self.telemetry
            if self.telemetry is not None
            else TelemetryConfig.from_current()
        )
        log = obs.logger()
        if log.enabled:
            log.event(
                "serve.start",
                seed=config.seed,
                devices=config.devices,
                shards=config.shards,
                intervals=config.intervals,
                policy=config.policy,
                batch_size=config.batch_size,
            )
        specs = self.build_specs()
        if config.cadences:
            # A slower device emits fewer records; its attack schedule
            # divides down with it so injection stays at the same
            # fraction of the (shorter) stream.
            specs = [
                scale_spec_for_cadence(
                    spec,
                    cadence_for(spec.index, config.cadences),
                    config.intervals,
                )
                for spec in specs
            ]
        with faults.injected(self.fault_plan):
            registry = DetectorRegistry(
                root_seed=config.seed, train=config.train, cache=self._cache()
            )
            payload = registry.fleet_payload(
                (spec.profile for spec in specs), modality=config.modality
            )
        if log.enabled:
            log.event(
                "serve.detectors.ready",
                seed=config.seed,
                profiles=sorted({spec.profile for spec in specs}),
                cache_hits=registry.cache_hits,
            )
        shard_specs = [
            [spec for spec in specs if spec.index % config.shards == shard]
            for shard in range(config.shards)
        ]
        if config.shards == 1:
            results = [
                _run_shard(
                    0, specs, payload, config, self.fault_plan,
                    telemetry=telemetry, in_process=True,
                )
            ]
        else:
            with capped_process_pool(config.shards) as pool:
                futures = [
                    pool.submit(
                        _run_shard, shard, shard_specs[shard], payload,
                        config, self.fault_plan, telemetry, False,
                    )
                    for shard in range(config.shards)
                ]
                results = [future.result() for future in futures]
        device_reports: List[DeviceReport] = []
        block_stalls = 0
        bus_totals: Optional[dict] = None
        # Merge in shard order — deterministic, so merged telemetry
        # (trace event order, log replay order) is reproducible too.
        for reports, stats, shard_telemetry in results:
            device_reports.extend(reports)
            block_stalls += stats["block_stalls"]
            bus_totals = self._merge_bus(bus_totals, stats["bus"])
            self._merge_telemetry(shard_telemetry)
        report = FleetReport.build(
            config=config,
            device_reports=device_reports,
            block_stalls=block_stalls,
            kernels_backend=kernels.active_backend(),
            bus=bus_totals,
        )
        if log.enabled:
            log.event(
                "serve.report.ready",
                seed=config.seed,
                devices=report.devices,
                alarms=report.alarms,
                dropped=report.dropped,
                fleet_digest=report.fleet_digest,
            )
        return report

    @staticmethod
    def _merge_bus(totals: Optional[dict], shard_bus: dict) -> dict:
        """Fold one shard's bus accounting into the fleet totals.

        Counters sum, nested counter dicts (``reporting``,
        ``recalibration``) sum per key, the ``failures`` records
        concatenate — shard order, so the merged manifest is
        deterministic.
        """
        if totals is None:
            totals = {}
        for key, value in shard_bus.items():
            if isinstance(value, dict):
                nested = totals.setdefault(key, {})
                for inner, count in value.items():
                    nested[inner] = nested.get(inner, 0) + count
            elif isinstance(value, list):
                totals.setdefault(key, []).extend(value)
            else:
                totals[key] = totals.get(key, 0) + value
        return totals

    @staticmethod
    def _merge_telemetry(shard_payload: Optional[dict]) -> None:
        """Fold one shard child's telemetry into the parent instruments."""
        if not shard_payload:
            return
        if shard_payload.get("metrics"):
            obs.metrics().merge_snapshot(shard_payload["metrics"])
        if shard_payload.get("trace_events"):
            obs.tracer().extend(shard_payload["trace_events"])
        if shard_payload.get("log_records"):
            parent_log = obs.logger()
            for record in shard_payload["log_records"]:
                parent_log.emit_record(record)

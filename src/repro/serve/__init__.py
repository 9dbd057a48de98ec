"""repro.serve — fleet-scale streaming detection service.

The paper's monitor guards one core of one board; this package scales
it out: N simulated devices (:mod:`repro.sim.fleet`) stream MHM
intervals into sharded workers that score them in batches through the
vectorized kernels, behind bounded backpressure queues, with
per-device drift monitoring against the calibrated θ_p.

Layers (see ``docs/serving.md``):

* :class:`~repro.serve.registry.DetectorRegistry` — profile → trained
  detector, through the artifact cache;
* :class:`~repro.serve.bus.EventBus` — the asyncio pub/sub data and
  control plane every shard runs on: ingestion, scoring, drift/
  recalibration and reporting as independent subscribers with
  per-subscriber bounded queues and backpressure (block / drop-oldest
  / shed);
* :class:`~repro.serve.worker.ShardWorker` — fixed-shape cross-device
  batch scoring with per-record SKIPPED degradation;
* :class:`~repro.serve.drift.DriftMonitor` — per-device score
  quantiles, θ_p recalibration proposals;
* :class:`~repro.serve.recalibrate.RecalibrationController` — applied
  hot detector swap: proposal → canary trial → per-device threshold
  commit;
* :class:`~repro.serve.service.FleetService` — the orchestrator
  behind ``repro serve``; emits a deterministic
  :class:`~repro.serve.report.FleetReport` that is bit-identical
  across shard counts.
"""

from .bus import (
    BUS_POLICIES,
    BusStallError,
    Event,
    EventBus,
    SchedulingJitter,
    Subscription,
)
from .drift import DriftMonitor, DriftPolicy, DriftStatus
from .health import health_summary, write_health
from .recalibrate import RecalibrationController, RecalibrationPolicy
from .registry import DetectorRegistry, FleetTrainSpec
from .report import DeviceReport, FleetReport, device_digest
from .service import (
    SERVE_TRACE_CATEGORIES,
    FleetService,
    ServeConfig,
    TelemetryConfig,
)
from .worker import ScoredInterval, ShardWorker

__all__ = [
    "BUS_POLICIES",
    "BusStallError",
    "Event",
    "EventBus",
    "SchedulingJitter",
    "Subscription",
    "DriftMonitor",
    "DriftPolicy",
    "DriftStatus",
    "DetectorRegistry",
    "FleetTrainSpec",
    "DeviceReport",
    "FleetReport",
    "device_digest",
    "FleetService",
    "ServeConfig",
    "TelemetryConfig",
    "SERVE_TRACE_CATEGORIES",
    "RecalibrationController",
    "RecalibrationPolicy",
    "ScoredInterval",
    "ShardWorker",
    "health_summary",
    "write_health",
]

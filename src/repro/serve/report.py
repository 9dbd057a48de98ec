"""Fleet report schema: the serving layer's deterministic output.

A :class:`FleetReport` is the complete record of one fleet run —
per-device verdict accounting plus fleet-wide totals.  It is designed
around the serial ≡ sharded acceptance criterion:

* **no wall-clock fields** — every value is a pure function of the
  run's configuration and seed;
* per-device **digests** — a sha256 over the device's interval
  indices, log-densities and verdict flags, so "bit-identical verdict
  sequences" is checkable by comparing two short hex strings;
* a **fleet digest** chaining the per-device digests in device order.

``repro fleet-report`` renders a saved report; tests compare
``to_dict()`` output across shard counts directly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

__all__ = ["DeviceReport", "FleetReport", "device_digest"]

SCHEMA_VERSION = 1


def device_digest(
    interval_indices: Sequence[int],
    log_densities: Sequence[float],
    flags: Sequence[str],
    context_scores: Optional[Sequence[float]] = None,
) -> str:
    """sha256 over one device's scored stream.

    Log-densities are hashed via their IEEE-754 hex representation, so
    the digest is sensitive to the last ulp — a single bit of drift in
    any verdict anywhere in the stream changes it.  When the worker
    scores a second modality it passes ``context_scores``, which chain
    into the digest the same way; single-modality digests are unchanged
    from earlier schema builds.
    """
    h = hashlib.sha256()
    if context_scores is None:
        for index, density, flag in zip(interval_indices, log_densities, flags):
            h.update(f"{index}:{float(density).hex()}:{flag};".encode())
        return h.hexdigest()
    for index, density, score, flag in zip(
        interval_indices, log_densities, context_scores, flags
    ):
        h.update(
            f"{index}:{float(density).hex()}:"
            f"{float(score).hex()}:{flag};".encode()
        )
    return h.hexdigest()


@dataclass
class DeviceReport:
    """One device's accounting for a fleet run."""

    device_id: str
    device_index: int
    profile: str
    shard: int
    scenario: Optional[str]
    inject_interval: Optional[int]
    emitted: int
    scored: int
    skipped: int
    dropped: int
    flagged: int
    alarms: int
    first_alarm_interval: Optional[int]
    detection_latency: Optional[int]  # intervals from injection to alarm
    true_positives: int
    false_positives: int
    attack_intervals: int
    benign_intervals: int
    drifted: bool
    drift_observed_rate: Optional[float]
    drift_expected_rate: Optional[float]
    suggested_threshold: Optional[float]
    digest: str
    log_densities: Optional[List[float]] = None  # kept only on request
    # Second-modality accounting (defaults keep schema-1 payloads
    # loadable; all three stay at their defaults under modality "mhm").
    context_flagged: int = 0
    context_drift_max: Optional[float] = None
    context_drift_exceeded: bool = False
    # Event-bus accounting (defaults keep earlier payloads loadable:
    # every field below is seed-determined, not scheduling-determined).
    #: Fleet steps between this device's intervals (heterogeneous
    #: cadences; 1 when every device ticks every step).
    cadence: int = 1
    #: A drift-proposed threshold passed its canary trial and was
    #: hot-swapped in during the run.
    recalibrated: bool = False
    recalibrated_threshold: Optional[float] = None
    recalibrated_at_interval: Optional[int] = None

    @property
    def false_positive_rate(self) -> Optional[float]:
        if self.benign_intervals == 0:
            return None
        return self.false_positives / self.benign_intervals

    @property
    def detection_rate(self) -> Optional[float]:
        if self.attack_intervals == 0:
            return None
        return self.true_positives / self.attack_intervals


@dataclass
class FleetReport:
    """Fleet-wide roll-up of a serving run."""

    schema: int
    devices: int
    shards: int
    intervals: int
    seed: int
    policy: str
    p_percent: float
    consecutive_for_alarm: int
    kernels_backend: str
    emitted: int
    scored: int
    skipped: int
    dropped: int
    flagged: int
    alarms: int
    block_stalls: int
    devices_alarmed: int
    devices_attacked: int
    attacked_devices_alarmed: int
    devices_drifted: int
    fleet_digest: str
    modality: str = "mhm"
    #: Which executor ran the shards.  Runs record "async" (the event
    #: bus, the only executor); the "lockstep" default is what reports
    #: written by the removed serial loop load as.  Scheduling metadata
    #: — it never changes the verdicts.
    executor: str = "lockstep"
    #: Devices whose threshold was hot-swapped by a recalibration
    #: commit (seed-determined, so it survives into the canonical view).
    devices_recalibrated: int = 0
    #: Event-bus accounting (publish/deliver/drop/shed counters, the
    #: poisoned-subscriber failure records, recalibration totals).
    #: ``None`` in reports written by the removed lockstep executor.
    bus: Optional[dict] = None
    device_reports: List[DeviceReport] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        *,
        config,
        device_reports: List[DeviceReport],
        block_stalls: int,
        kernels_backend: str,
        bus: Optional[dict] = None,
    ) -> "FleetReport":
        reports = sorted(device_reports, key=lambda r: r.device_index)
        fleet = hashlib.sha256()
        for report in reports:
            fleet.update(report.digest.encode())
        attacked = [r for r in reports if r.scenario is not None]
        return cls(
            schema=SCHEMA_VERSION,
            devices=len(reports),
            shards=config.shards,
            intervals=config.intervals,
            seed=config.seed,
            policy=config.policy,
            p_percent=config.p_percent,
            consecutive_for_alarm=config.consecutive_for_alarm,
            kernels_backend=kernels_backend,
            emitted=sum(r.emitted for r in reports),
            scored=sum(r.scored for r in reports),
            skipped=sum(r.skipped for r in reports),
            dropped=sum(r.dropped for r in reports),
            flagged=sum(r.flagged for r in reports),
            alarms=sum(r.alarms for r in reports),
            block_stalls=block_stalls,
            devices_alarmed=sum(1 for r in reports if r.alarms > 0),
            devices_attacked=len(attacked),
            attacked_devices_alarmed=sum(1 for r in attacked if r.alarms > 0),
            devices_drifted=sum(1 for r in reports if r.drifted),
            fleet_digest=fleet.hexdigest(),
            modality=getattr(config, "modality", "mhm"),
            executor=config.executor,
            devices_recalibrated=sum(1 for r in reports if r.recalibrated),
            bus=bus,
            device_reports=reports,
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetReport":
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fleet report schema {payload.get('schema')!r}"
            )
        devices = [DeviceReport(**entry) for entry in payload["device_reports"]]
        fields = {k: v for k, v in payload.items() if k != "device_reports"}
        # Reports written while a float32 scoring path existed carry the
        # compute dtype; a float64 one is this build's only precision.
        legacy_dtype = fields.pop("kernels_dtype", "float64")
        if legacy_dtype != "float64":
            raise ValueError(
                f"fleet report has kernels_dtype={legacy_dtype!r}: it was "
                "scored by the removed float32 kernels path, and this "
                "build scores in float64 only"
            )
        return cls(device_reports=devices, **fields)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FleetReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- convenience ---------------------------------------------------
    @property
    def verdict_sequences(self) -> Dict[str, str]:
        """device_id → digest, the bit-identity comparison surface."""
        return {r.device_id: r.digest for r in self.device_reports}

    def canonical_dict(self) -> dict:
        """The shard-count-invariant view of the report.

        Everything seed-determined is kept; the only fields removed are
        the scheduling metadata that *names* the run's execution — the
        shard count, each device's shard assignment, which executor ran
        it, the ``block_stalls`` counter (shard-local queue pressure)
        and the ``bus`` accounting block (per-run scheduling detail).
        ``repro serve --shards 1`` and ``--shards 4`` on the same seed
        produce equal canonical dicts, and both equal the canonical
        reports frozen from the removed lockstep executor — the
        bus-conformance suite asserts it, digests included.
        """
        payload = self.to_dict()
        payload.pop("shards")
        payload.pop("block_stalls")
        payload.pop("executor")
        payload.pop("bus")
        for entry in payload["device_reports"]:
            entry.pop("shard")
        return payload

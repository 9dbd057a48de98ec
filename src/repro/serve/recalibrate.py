"""Applied hot detector swap: drift proposals → canary trial → commit.

PR 5's :class:`~repro.serve.drift.DriftMonitor` *reports* a
recalibrated threshold when a device's benign score distribution
slides (the empirical p-quantile of the field window — the paper's
θ_p calibration re-run on fresh data) but never applies it.  This
module closes the loop, carefully: a bad threshold swap on a live
fleet is worse than a drifted one, so every proposal earns its commit
through a canary trial on the proposing device.

The state machine, per device::

    watching ──drift flagged──▶ proposed ──trial──▶ committed
        ▲                          │
        └────── cooldown ◀─────rejected

* **proposed** — every ``check_every`` scored records the controller
  asks the worker for the device's drift verdict
  (:meth:`~repro.serve.worker.ShardWorker.drift_status`, the verdict
  the device's report shows); a drifted device with a suggested
  threshold publishes ``recalibrate.proposed`` and enters a trial.
* **canary trial** — for the next ``canary_intervals`` records the
  candidate θ′ runs in *shadow*: the device keeps scoring under its
  deployed threshold while the controller counts how many intervals θ′
  *would* flag.
* **committed** — the shadow flag count stays within
  ``max_canary_flags``: the worker's per-device threshold override is
  installed (:meth:`~repro.serve.worker.ShardWorker.apply_threshold`),
  the drift window resets so the next verdict is earned on
  post-commit data, and ``recalibrate.committed`` is published.
* **rejected** — the candidate over-flags in shadow; the device backs
  off for ``cooldown`` records before re-proposing.

Determinism: the controller is a **direct** bus subscriber driven by
``interval.scored`` events, which arrive per device in interval order
regardless of shard count or scheduling.  Every decision is a pure
function of one device's score prefix, so recalibrated runs keep the
async×{1,2,4}-shard digest identity (the recalibration conformance
suite asserts exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from .bus import EventBus
from .worker import ScoredInterval, ShardWorker

__all__ = ["RecalibrationPolicy", "RecalibrationController"]


@dataclass(frozen=True)
class RecalibrationPolicy:
    """When may a drift-suggested threshold be trialled and committed?"""

    enabled: bool = False
    #: Scored records between drift checks on each device.
    check_every: int = 8
    #: Shadow-trial length, in that device's scored records.
    canary_intervals: int = 24
    #: Trial verdict: commit iff the candidate θ′ would have flagged at
    #: most this many of the canary records.  An integer count, not a
    #: rate — at serving-scale p (1 %) and trial lengths of a few dozen
    #: records, "at most one shadow flag" *is* the FPR budget.
    max_canary_flags: int = 1
    #: Records a device sits out after a rejected trial.
    cooldown: int = 32
    #: Commits allowed per device per run (hot swap, not oscillation).
    max_commits_per_device: int = 1

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.canary_intervals < 1:
            raise ValueError("canary_intervals must be >= 1")
        if self.max_canary_flags < 0:
            raise ValueError("max_canary_flags must be >= 0")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.max_commits_per_device < 1:
            raise ValueError("max_commits_per_device must be >= 1")


@dataclass
class _Trial:
    """One in-flight canary trial (shadow threshold evaluation)."""

    threshold: float
    proposed_at: int  # interval index of the proposing record
    seen: int = 0
    shadow_flags: int = 0

    def observe(self, log_density: float) -> None:
        self.seen += 1
        if log_density < self.threshold:
            self.shadow_flags += 1


@dataclass
class _DeviceLane:
    """Per-device controller state."""

    samples: int = 0
    commits: int = 0
    cooldown_until: int = 0  # sample ordinal, exclusive
    trial: Optional[_Trial] = None


class RecalibrationController:
    """Drives proposal → canary → commit over scored-interval events."""

    def __init__(
        self,
        policy: RecalibrationPolicy,
        worker: ShardWorker,
        bus: Optional[EventBus] = None,
        shard: int = 0,
    ):
        self.policy = policy
        self.worker = worker
        self.bus = bus
        self.shard = shard
        self.proposed = 0
        self.committed = 0
        self.rejected = 0
        self._lanes: Dict[str, _DeviceLane] = {}
        registry = obs.metrics()
        self._metric_proposed = registry.counter("serve.recalibrate.proposed")
        self._metric_committed = registry.counter("serve.recalibrate.committed")
        self._metric_rejected = registry.counter("serve.recalibrate.rejected")
        self._log = obs.logger()

    # ------------------------------------------------------------------
    def on_scored(self, scored: ScoredInterval) -> None:
        """One scored record for one device, in interval order."""
        lane = self._lanes.get(scored.device_id)
        if lane is None:
            lane = _DeviceLane()
            self._lanes[scored.device_id] = lane
        lane.samples += 1
        if lane.trial is not None:
            lane.trial.observe(scored.log_density)
            if lane.trial.seen >= self.policy.canary_intervals:
                self._finish_trial(scored.device_id, lane, scored)
            return
        if lane.commits >= self.policy.max_commits_per_device:
            return
        if lane.samples < lane.cooldown_until:
            return
        if lane.samples % self.policy.check_every:
            return
        # Runs inline right after the record it judges, so the deployed
        # θ drift_status reads is the record's own scored.theta.
        status = self.worker.drift_status(scored.device_id)
        if status.drifted and status.suggested_threshold is not None:
            self._propose(scored, lane, status.suggested_threshold)

    # ------------------------------------------------------------------
    def _publish(self, topic: str, payload: dict, key: str) -> None:
        if self.bus is not None:
            self.bus.publish_sync(
                topic, payload, publisher=f"recalibrate-{self.shard}", key=key
            )

    def _propose(
        self, scored: ScoredInterval, lane: _DeviceLane, threshold: float
    ) -> None:
        lane.trial = _Trial(
            threshold=float(threshold), proposed_at=scored.interval_index
        )
        self.proposed += 1
        self._metric_proposed.inc()
        if self._log.enabled:
            self._log.event(
                "serve.recalibrate.proposed",
                level="info",
                device_id=scored.device_id,
                shard=self.shard,
                threshold=float(threshold),
                interval=scored.interval_index,
            )
        self._publish(
            "recalibrate.proposed",
            {
                "device_id": scored.device_id,
                "threshold": float(threshold),
                "interval": scored.interval_index,
            },
            key=f"{scored.device_id}@{scored.interval_index}",
        )

    def _finish_trial(
        self, device_id: str, lane: _DeviceLane, scored: ScoredInterval
    ) -> None:
        trial = lane.trial
        lane.trial = None
        payload = {
            "device_id": device_id,
            "threshold": trial.threshold,
            "interval": scored.interval_index,
            "shadow_flags": trial.shadow_flags,
            "canary_intervals": trial.seen,
        }
        key = f"{device_id}@{scored.interval_index}"
        if trial.shadow_flags <= self.policy.max_canary_flags:
            lane.commits += 1
            self.committed += 1
            self._metric_committed.inc()
            # The hot swap itself: the very next record of this device
            # scores under θ′ (apply_threshold is read per record), and
            # the drift window restarts so the next verdict reflects
            # post-commit behaviour only.
            self.worker.apply_threshold(
                device_id, trial.threshold,
                interval_index=scored.interval_index,
            )
            self.worker.drift.reset(device_id)
            if self._log.enabled:
                self._log.event(
                    "serve.recalibrate.committed",
                    level="info",
                    device_id=device_id,
                    shard=self.shard,
                    threshold=trial.threshold,
                    interval=scored.interval_index,
                    shadow_flags=trial.shadow_flags,
                )
            self._publish("recalibrate.committed", payload, key)
        else:
            lane.cooldown_until = lane.samples + self.policy.cooldown
            self.rejected += 1
            self._metric_rejected.inc()
            if self._log.enabled:
                self._log.event(
                    "serve.recalibrate.rejected",
                    level="warn",
                    device_id=device_id,
                    shard=self.shard,
                    threshold=trial.threshold,
                    interval=scored.interval_index,
                    shadow_flags=trial.shadow_flags,
                )
            self._publish("recalibrate.rejected", payload, key)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "proposed": self.proposed,
            "committed": self.committed,
            "rejected": self.rejected,
        }

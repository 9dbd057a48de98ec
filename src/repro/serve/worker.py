"""Shard workers: batched scoring of interleaved device streams.

A :class:`ShardWorker` owns a subset of the fleet's devices and scores
their interval records in cross-device batches through the fused
fleet-scoring kernel — one :func:`repro.kernels.fleet_score_batch`
call per profile group composes the projection, GMM density and
context-score kernels plus the phase-residual extraction over every
record in the batch, regardless of which device produced it.  The
drift channel's running cumsum over those residuals stays here,
per device, because a stream arrives one batch at a time.

**Fixed-shape batching.** BLAS matrix products are not row-separable:
``(A[:n] @ B)`` and ``(A @ B)[:n]`` can differ in the last ulp, and
the difference depends on the batch's *row count*.  Naive cross-device
batching would therefore make a device's log-densities depend on which
other records happened to share its batch — breaking the serial ≡
sharded bit-identity contract.  The worker instead has the fused
call pad every batch to a fixed ``batch_pad`` row count with zero
rows.  At a fixed matrix shape, each row's result is
independent of the other rows' *contents and order* (verified by the
serve determinism suite), so every record's score is a pure function
of its own MHM vector — whatever batch, shard or interleaving it
arrived through.

**One budget.** The worker's ``p_percent`` is the fleet's single
false-positive budget.  Each profile's θ sits at the MHM channel's
share of it (all of it unless ``modality="ensemble"``, where
:meth:`~repro.learn.ensemble.EnsembleConfig.budgets` splits it with
the context channel).  A device is judged at its *deployed* θ
(:meth:`ShardWorker.deployed_theta`: a committed recalibration
override, else the profile θ), and its drift verdict comes from
:meth:`ShardWorker.drift_status` alone, for reports and the
recalibration controller alike.

**One alarm rule.** An injected ``serve.score`` fault or a non-finite
density degrades that record's verdict to SKIPPED and the stream
continues.  ``_record`` and ``_skip`` keep each device's streak one
record at a time: a flag extends it, an OK or SKIPPED verdict resets
it, and an alarm fires when it reaches ``consecutive_for_alarm`` —
the streaming form of :func:`repro.learn.metrics.alarm_streaks`,
which ``repro monitor``/``repro attack`` and the conformance matrix
apply to whole windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import faults, kernels, obs

# The default scoring backend (and scipy.linalg under it) loads with
# the serving layer rather than inside the first scored batch, so
# batch latencies measure scoring.  The reference backend stays lazy.
from ..kernels import vectorized as _vectorized  # noqa: F401
from ..learn.contexts import ContextDetector
from ..learn.detector import MhmDetector
from ..learn.ensemble import EnsembleConfig
from ..obs.context import trace_args
from ..sim.fleet import DeviceSpec, IntervalRecord
from .drift import DriftMonitor, DriftStatus
from .report import DeviceReport, device_digest

__all__ = [
    "DeviceState",
    "ScoredInterval",
    "ShardWorker",
]

#: Verdict labels recorded per scored interval.
OK, ANOMALOUS, SKIPPED = "ok", "anomalous", "skipped"


@dataclass(frozen=True)
class ScoredInterval:
    """One scored record's outcome, as handed to ``on_scored``.

    The event-bus executor publishes this on ``interval.scored`` after
    every scored (not skipped, not dropped) record — the control
    plane's entire view of the data plane.  ``theta`` is the threshold
    the verdict was actually judged against (the per-device override
    when one is committed, the profile θ_p otherwise).
    """

    device_id: str
    profile: str
    interval_index: int
    log_density: float
    theta: float
    flag: str  # OK / ANOMALOUS
    alarm: bool  # this record completed an alarm streak
    truth: bool
    time_ns: int = 0


@dataclass
class DeviceState:
    """Accumulated scoring record for one device on a shard.

    The context-modality fields stay empty under ``modality="mhm"``.
    ``context_cumulative`` is the drift channel's running
    phase-residual sum — per-device and advanced strictly in interval
    order, so it is shard-placement invariant (a device lives on
    exactly one shard and its records arrive in stream order).
    """

    spec: DeviceSpec
    interval_indices: List[int] = field(default_factory=list)
    log_densities: List[float] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)
    truths: List[bool] = field(default_factory=list)
    alarms: List[int] = field(default_factory=list)
    emitted: int = 0
    dropped: int = 0
    streak: int = 0
    context_scores: List[float] = field(default_factory=list)
    context_flagged: int = 0
    context_cumulative: Optional[np.ndarray] = None
    context_drift_max: float = 0.0
    context_drift_exceeded: bool = False


class ShardWorker:
    """Scores the interval records of one shard's devices."""

    def __init__(
        self,
        detectors: Dict[str, MhmDetector],
        specs: Sequence[DeviceSpec],
        p_percent: float = 1.0,
        consecutive_for_alarm: int = 3,
        batch_pad: int = 32,
        drift: Optional[DriftMonitor] = None,
        shard: int = 0,
        modality: str = "mhm",
        context_detectors: Optional[Dict[str, ContextDetector]] = None,
        ensemble: Optional[EnsembleConfig] = None,
    ):
        if batch_pad < 1:
            raise ValueError("batch_pad must be >= 1")
        self.ensemble = ensemble if ensemble is not None else EnsembleConfig()
        mhm_p, context_p = self.ensemble.budgets(modality, p_percent)
        if modality != "mhm" and not context_detectors:
            raise ValueError(
                f"modality {modality!r} needs per-profile context detectors"
            )
        self.detectors = detectors
        self.p_percent = p_percent
        self.consecutive_for_alarm = consecutive_for_alarm
        self.batch_pad = batch_pad
        self.shard = shard
        self.modality = modality
        self.context_detectors = context_detectors or {}
        self.drift = drift if drift is not None else DriftMonitor(shard=shard)
        self.thetas = {
            profile: detector.threshold(mhm_p)
            for profile, detector in detectors.items()
        }
        self.context_thetas: Dict[str, float] = {}
        if modality != "mhm":
            self.context_thetas = {
                profile: context.threshold(context_p)
                for profile, context in self.context_detectors.items()
            }
        # One fused scorer per profile, built on first use: both
        # modalities' fitted arrays bound once, scored in a single
        # kernels.fleet_score_batch call per cross-device batch.
        self._scorers: Dict[str, kernels.FleetScorer] = {}
        # Hot-swapped per-device thresholds (recalibration commits) and
        # their provenance.  Empty unless recalibration commits, so the
        # per-record override lookup cannot perturb historical digests.
        self._theta_overrides: Dict[str, float] = {}
        self._recalibrations: Dict[str, dict] = {}
        #: Control-plane tap: called synchronously with a
        #: :class:`ScoredInterval` after each scored record, in stream
        #: order.  The shard executor bridges this onto the event bus.
        self.on_scored: Optional[Callable[[ScoredInterval], None]] = None
        self.states: Dict[str, DeviceState] = {
            spec.device_id: DeviceState(spec=spec) for spec in specs
        }
        registry = obs.metrics()
        self._metric_scored = registry.counter("serve.intervals_scored")
        self._metric_flagged = registry.counter("serve.intervals_flagged")
        self._metric_skipped = registry.counter("serve.intervals_skipped")
        self._metric_alarms = registry.counter("serve.alarms")
        self._metric_shard_scored = registry.counter_family(
            "serve.shard.intervals_scored", ("shard",)
        ).labels(shard=str(shard))
        modality_flags = registry.counter_family(
            "serve.modality.flags", ("modality",)
        )
        self._metric_mhm_flags = modality_flags.labels(modality="mhm")
        self._metric_context_flags = modality_flags.labels(modality="context")
        self._metric_modality_alarms = registry.counter_family(
            "serve.modality.alarms", ("modality",)
        ).labels(modality=modality)
        self._log = obs.logger()
        self._tracer = obs.tracer()

    # ------------------------------------------------------------------
    def scorer_for(self, profile: str) -> kernels.FleetScorer:
        """The profile's fused scorer (memoised)."""
        scorer = self._scorers.get(profile)
        if scorer is None:
            scorer = kernels.FleetScorer.from_detectors(
                self.detectors[profile],
                self.context_detectors.get(profile)
                if self.modality != "mhm"
                else None,
            )
            self._scorers[profile] = scorer
        return scorer

    # ------------------------------------------------------------------
    def score_batch(self, records: Sequence[IntervalRecord]) -> None:
        """Score one cross-device batch of interval records.

        Outcomes are applied to device state in **stream order**: a
        record skipped by a ``serve.score`` fault lands in its device's
        history at the same position whether its batch held one record
        or thirty-two.  (Appending skips during the fault pass and
        scores during the kernel pass would front-load a device's skips
        within large batches — reordering its digest chain and resetting
        alarm streaks at the wrong point in the stream, so the report
        would depend on batch composition.)
        """
        faulted: Dict[int, bool] = {}
        # Group live records by profile (each profile scores through
        # its own detector), remembering each record's batch position.
        by_profile: Dict[str, List[int]] = {}
        for position, record in enumerate(records):
            self.states[record.device_id].emitted += 1
            try:
                fault = faults.check(
                    "serve.score",
                    token=f"{record.device_id}@{record.interval_index}",
                )
                if fault is not None and fault.mode in ("corrupt", "truncate"):
                    raise faults.FaultError(
                        "serve.score", "corrupted MHM interval buffer"
                    )
            except Exception:
                faulted[position] = True
                continue
            by_profile.setdefault(record.profile, []).append(position)
        densities: Dict[int, float] = {}
        context_by_pos: Dict[int, float] = {}
        residual_by_pos: Dict[int, np.ndarray] = {}
        for profile, positions in by_profile.items():
            scorer = self.scorer_for(profile)
            group = [records[i] for i in positions]
            matrix = np.stack([record.vector for record in group])
            if self.modality != "mhm":
                # The context channels ride in the same fused call; the
                # nearest-centroid stage is row-separable (no BLAS), so
                # it needs no fixed-shape padding to stay
                # batch-composition independent.
                scores = scorer.score(
                    matrix,
                    syscalls=np.stack([record.syscalls for record in group]),
                    interval_indices=[
                        record.interval_index for record in group
                    ],
                    pad_to=self.batch_pad,
                )
            else:
                scores = scorer.score(matrix, pad_to=self.batch_pad)
            for row, position in enumerate(positions):
                densities[position] = float(scores.log_densities[row])
                if scores.context_scores is not None:
                    context_by_pos[position] = float(
                        scores.context_scores[row]
                    )
                if scores.context_residuals is not None:
                    residual_by_pos[position] = scores.context_residuals[row]
        for position, record in enumerate(records):
            state = self.states[record.device_id]
            if faulted.get(position):
                self._skip(state, record, reason="fault:serve.score")
                continue
            log_density = densities[position]
            if not np.isfinite(log_density):
                self._skip(state, record, reason="non-finite-density")
                continue
            # Per-record threshold lookup so a recalibration commit
            # takes effect on the device's very next record — even
            # mid-batch (`on_scored` runs inline below, and a commit
            # it triggers lands in _theta_overrides immediately).
            effective = self.deployed_theta(record.device_id, record.profile)
            self._record(
                state,
                record,
                log_density,
                effective,
                context_score=context_by_pos.get(position),
                context_residual=residual_by_pos.get(position),
            )
            if self.on_scored is not None:
                self.on_scored(
                    ScoredInterval(
                        device_id=record.device_id,
                        profile=record.profile,
                        interval_index=record.interval_index,
                        log_density=log_density,
                        theta=effective,
                        flag=state.flags[-1],
                        alarm=bool(
                            state.alarms
                            and state.alarms[-1] == record.interval_index
                        ),
                        truth=record.truth,
                        time_ns=record.time_ns,
                    )
                )

    def record_dropped(self, record: IntervalRecord) -> None:
        """Account for a record lost before scoring (queue eviction or
        shed, or a bus publish/deliver fault)."""
        state = self.states[record.device_id]
        state.emitted += 1
        state.dropped += 1

    def deployed_theta(self, device_id: str, profile: str) -> float:
        """The θ a device is judged at: the committed recalibration
        override if there is one, else its profile's θ."""
        return self._theta_overrides.get(device_id, self.thetas[profile])

    def drift_status(self, device_id: str) -> DriftStatus:
        """The device's drift verdict against its deployed θ, at the
        worker's false-positive budget."""
        profile = self.states[device_id].spec.profile
        return self.drift.status(
            device_id, self.deployed_theta(device_id, profile), self.p_percent
        )

    def apply_threshold(
        self,
        device_id: str,
        theta: float,
        interval_index: Optional[int] = None,
    ) -> None:
        """Hot-swap one device's detection threshold (recalibration
        commit).  Takes effect on the device's next scored record."""
        self._theta_overrides[device_id] = float(theta)
        self._recalibrations[device_id] = {
            "threshold": float(theta),
            "interval": interval_index,
        }

    # ------------------------------------------------------------------
    def _verdict_telemetry(
        self, record: IntervalRecord, status: str, **extra
    ) -> None:
        """One ``score.verdict`` span per record (telemetry only)."""
        span = record.trace.child("score") if record.trace is not None else None
        self._tracer.instant(
            "score.verdict",
            record.time_ns,
            category="serve",
            args=trace_args(
                span,
                status=status,
                device_id=record.device_id,
                interval=record.interval_index,
                shard=self.shard,
                **extra,
            ),
            track=record.device_index,
        )

    def _skip(
        self, state: DeviceState, record: IntervalRecord, reason: str = "fault"
    ) -> None:
        state.interval_indices.append(record.interval_index)
        state.log_densities.append(float("nan"))
        state.flags.append(SKIPPED)
        state.truths.append(record.truth)
        if self.modality != "mhm":
            state.context_scores.append(float("nan"))
        state.streak = 0
        self._metric_skipped.inc()
        if self._log.enabled:
            self._log.event(
                "serve.score.skip",
                level="warn",
                device_id=record.device_id,
                shard=self.shard,
                sim_time_ns=record.time_ns,
                trace=record.trace,
                interval=record.interval_index,
                reason=reason,
            )
        if self._tracer.enabled:
            self._verdict_telemetry(record, SKIPPED, reason=reason)

    def _context_flag(
        self,
        state: DeviceState,
        record: IntervalRecord,
        score: float,
        residual: np.ndarray,
    ) -> bool:
        """Context-modality verdict: score channel OR drift channel.

        Advances the device's running phase-residual cumsum — called
        exactly once per scored record, in interval order.  The
        ``residual`` row comes precomputed from the fused scoring call
        (``syscalls − phase_means[interval % hyperperiod]``, the same
        elementwise subtraction this method historically performed).
        """
        context = self.context_detectors[record.profile]
        state.context_scores.append(score)
        if state.context_cumulative is None:
            state.context_cumulative = np.zeros_like(residual)
        state.context_cumulative += residual
        statistic = float(np.abs(state.context_cumulative).max())
        state.context_drift_max = max(state.context_drift_max, statistic)
        drift_exceeded = statistic > context.drift_bound_
        if drift_exceeded:
            state.context_drift_exceeded = True
        flagged = score > self.context_thetas[record.profile] or drift_exceeded
        if flagged:
            state.context_flagged += 1
        return flagged

    def _fused_verdict(
        self,
        state: DeviceState,
        record: IntervalRecord,
        log_density: float,
        theta: float,
        context_score: Optional[float],
        context_residual: Optional[np.ndarray],
    ) -> bool:
        mhm_flag = log_density < theta
        if mhm_flag:
            self._metric_mhm_flags.inc()
        context_flag = None
        if self.modality != "mhm":
            context_flag = self._context_flag(
                state, record, context_score, context_residual
            )
            if context_flag:
                self._metric_context_flags.inc()
        return self.ensemble.verdict(self.modality, mhm_flag, context_flag)

    def _record(
        self,
        state: DeviceState,
        record: IntervalRecord,
        log_density: float,
        theta: float,
        context_score: Optional[float] = None,
        context_residual: Optional[np.ndarray] = None,
    ) -> None:
        anomalous = self._fused_verdict(
            state, record, log_density, theta, context_score, context_residual
        )
        state.interval_indices.append(record.interval_index)
        state.log_densities.append(log_density)
        state.flags.append(ANOMALOUS if anomalous else OK)
        state.truths.append(record.truth)
        self._metric_scored.inc()
        self._metric_shard_scored.inc()
        if self._tracer.enabled:
            self._verdict_telemetry(
                record, ANOMALOUS if anomalous else OK
            )
        self.drift.observe(record.device_id, log_density)
        if anomalous:
            self._metric_flagged.inc()
            state.streak += 1
            if state.streak == self.consecutive_for_alarm:
                state.alarms.append(record.interval_index)
                self._metric_alarms.inc()
                self._metric_modality_alarms.inc()
                if self._log.enabled:
                    self._log.event(
                        "serve.alarm",
                        level="warn",
                        device_id=record.device_id,
                        shard=self.shard,
                        sim_time_ns=record.time_ns,
                        trace=record.trace,
                        interval=record.interval_index,
                        streak=state.streak,
                    )
                if self._tracer.enabled:
                    span = (
                        record.trace.child("alarm")
                        if record.trace is not None
                        else None
                    )
                    self._tracer.instant(
                        "device.alarm",
                        record.time_ns,
                        category="alarm",
                        args=trace_args(
                            span,
                            status="alarm",
                            device_id=record.device_id,
                            interval=record.interval_index,
                            streak=state.streak,
                        ),
                        track=record.device_index,
                    )
        else:
            state.streak = 0

    # ------------------------------------------------------------------
    def device_report(
        self,
        spec: DeviceSpec,
        shard: int,
        keep_densities: bool = False,
        cadence: int = 1,
    ) -> DeviceReport:
        """Roll one device's state up into its report entry."""
        state = self.states[spec.device_id]
        recalibration = self._recalibrations.get(spec.device_id)
        status = self.drift_status(spec.device_id)
        scored = sum(1 for flag in state.flags if flag != SKIPPED)
        skipped = sum(1 for flag in state.flags if flag == SKIPPED)
        flagged = sum(1 for flag in state.flags if flag == ANOMALOUS)
        true_pos = sum(
            1
            for flag, truth in zip(state.flags, state.truths)
            if flag == ANOMALOUS and truth
        )
        false_pos = flagged - true_pos
        attack_intervals = sum(state.truths)
        benign_intervals = scored + skipped - attack_intervals
        first_alarm = state.alarms[0] if state.alarms else None
        latency = None
        if spec.inject_interval is not None:
            for alarm in state.alarms:
                if alarm >= spec.inject_interval:
                    latency = alarm - spec.inject_interval
                    break
        return DeviceReport(
            device_id=spec.device_id,
            device_index=spec.index,
            profile=spec.profile,
            shard=shard,
            scenario=spec.scenario,
            inject_interval=spec.inject_interval,
            emitted=state.emitted,
            scored=scored,
            skipped=skipped,
            dropped=state.dropped,
            flagged=flagged,
            alarms=len(state.alarms),
            first_alarm_interval=first_alarm,
            detection_latency=latency,
            true_positives=true_pos,
            false_positives=false_pos,
            attack_intervals=attack_intervals,
            benign_intervals=benign_intervals,
            drifted=status.drifted,
            drift_observed_rate=status.observed_rate,
            drift_expected_rate=status.expected_rate,
            suggested_threshold=status.suggested_threshold,
            digest=device_digest(
                state.interval_indices,
                state.log_densities,
                state.flags,
                context_scores=(
                    state.context_scores if self.modality != "mhm" else None
                ),
            ),
            log_densities=list(state.log_densities) if keep_densities else None,
            context_flagged=state.context_flagged,
            context_drift_max=(
                state.context_drift_max if self.modality != "mhm" else None
            ),
            context_drift_exceeded=state.context_drift_exceeded,
            cadence=cadence,
            recalibrated=recalibration is not None,
            recalibrated_threshold=(
                recalibration["threshold"] if recalibration else None
            ),
            recalibrated_at_interval=(
                recalibration["interval"] if recalibration else None
            ),
        )

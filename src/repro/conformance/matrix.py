"""The attack × detector conformance matrix.

Every scenario registered in :data:`repro.pipeline.stages.SCENARIOS`
is run against the reference detector on seeded boots and scored by
every detector column; the observed outcome of each cell is compared
against the outcome the attack class *declares* in its
``expected_outcomes`` mapping (:class:`repro.attacks.base.Attack`).
The build refuses to run if any registered attack leaves a cell
undeclared, declares an unknown column, or uses an out-of-vocabulary
outcome — so a new attack (or a new detector column) cannot land
without stating how every cell is supposed to fare.

Detector columns
----------------

``gmm-alarm``
    The serving layer's alarm rule: ``consecutive_for_alarm``
    consecutive sub-θ_p intervals after injection.  Outcome ``detect``
    or ``miss``.
``gmm-interval``
    Raw per-interval GMM verdicts: the post-injection flag rate must
    clear an alert floor well above the calibrated false-positive
    budget.  Outcome ``detect`` or ``miss``.
``drift``
    :func:`repro.serve.drift.evaluate_drift` over the post-injection
    log-density series — does the score distribution shift enough to
    trip the drift monitor even when individual intervals stay quiet?
    Outcome ``drift-flag`` or ``no-drift``.
``fpr-budget``
    Sanity column: before injection the scenario boot must flag at
    (binomially) no more than the calibrated p-percent budget.
    Outcome ``within-budget`` or ``over-budget``.
``context``
    The second modality
    (:class:`~repro.learn.contexts.ContextDetector`): per-interval
    syscall-distribution scores against the learned execution
    contexts, OR'd with the phase-drift channel — the column that
    catches the mimicry attack the four MHM-side columns declare as
    misses.  Outcome ``detect`` or ``miss``.

Everything is deterministic: fixed training seed, fixed scenario
seed, pure simulation.  Two builds at the same sizing produce
byte-identical canonical JSON (the golden/fresh-interpreter tests
hold the matrix to that).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..learn.ensemble import allowed_false_positive_rate
from ..learn.metrics import alarm_streaks
from ..pipeline.experiments import (
    QUICK_SCALE,
    ExperimentScale,
    ScenarioOutcome,
    get_reference_artifacts,
    run_scenario_experiment,
)
from ..pipeline.stages import SCENARIOS
from ..serve.drift import DriftPolicy, evaluate_drift

__all__ = [
    "MatrixSizing",
    "TINY_SIZING",
    "CI_SIZING",
    "SIZINGS",
    "DETECTOR_COLUMNS",
    "OUTCOME_VOCABULARY",
    "MATRIX_DRIFT_POLICY",
    "MatrixCell",
    "ConformanceMatrix",
    "validate_declarations",
    "interval_alert_floor",
    "interval_detect",
    "build_matrix",
]

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Sizing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixSizing:
    """How big a matrix run is (training protocol + scenario windows)."""

    name: str
    scale: ExperimentScale
    pre_intervals: int
    attack_intervals: int
    seed: int = 0
    scenario_seed: int = 999
    p_percent: float = 1.0
    consecutive_for_alarm: int = 3

    def __post_init__(self) -> None:
        if self.pre_intervals < 1:
            raise ValueError("pre_intervals must be >= 1")
        # The drift column needs enough post-injection samples for a
        # verdict (DriftPolicy.min_samples) — fail loudly at
        # construction, not with a silent no-verdict cell.
        if self.attack_intervals < DriftPolicy().min_samples:
            raise ValueError(
                "attack_intervals must be >= "
                f"{DriftPolicy().min_samples} for a drift verdict"
            )
        if self.consecutive_for_alarm < 1:
            raise ValueError("consecutive_for_alarm must be >= 1")


#: Smallest sizing with enough post-injection intervals for every
#: column to reach a verdict — unit tests and the golden fixture.
TINY_SIZING = MatrixSizing(
    name="tiny",
    scale=ExperimentScale(
        name="matrix-tiny",
        training_runs=2,
        intervals_per_run=60,
        validation_intervals=60,
        pre_attack_intervals=30,
        attack_intervals=48,
        post_attack_intervals=0,
        em_restarts=2,
    ),
    pre_intervals=30,
    attack_intervals=48,
)

#: CI sizing reuses the test suite's QUICK_SCALE training protocol so
#: the in-process artifact memo is shared with the fixtures.
CI_SIZING = MatrixSizing(
    name="ci",
    scale=QUICK_SCALE,
    pre_intervals=60,
    attack_intervals=80,
)

SIZINGS: Dict[str, MatrixSizing] = {s.name: s for s in (TINY_SIZING, CI_SIZING)}


# ----------------------------------------------------------------------
# Detector columns
# ----------------------------------------------------------------------
def _round(value: float) -> float:
    return round(float(value), 9)


def _gmm_alarm(
    outcome: ScenarioOutcome, sizing: MatrixSizing
) -> Tuple[str, Dict[str, float]]:
    start = outcome.scenario.attack_interval
    post = outcome.flags(sizing.p_percent)[start:]
    longest = int(alarm_streaks(post).max(initial=0))
    detected = longest >= sizing.consecutive_for_alarm
    return (
        "detect" if detected else "miss",
        {
            "max_consecutive_flags": longest,
            "alarm_after": sizing.consecutive_for_alarm,
            "detection_latency_intervals": outcome.detection_latency_intervals(
                sizing.p_percent
            ),
        },
    )


def interval_alert_floor(p_percent: float) -> float:
    """Post-injection flag rate that counts as a per-interval detect.

    An order of magnitude above the calibrated budget (5× the expected
    benign rate, never below an absolute 10% floor).  The margin is
    deliberate: at matrix window sizes any injected activity perturbs
    the platform's RNG trajectory enough to scatter a few boundary
    flags (~up to 4 in 48 intervals on quiet scenarios), and those
    must not read as a detection.
    """
    return max(5.0 * p_percent / 100.0, 0.10)


def interval_detect(
    rate: float, p_percent: float, drift_exceeded: bool = False
) -> bool:
    """The per-interval detect rule of the matrix and ``repro detect``:
    the post-injection flag ``rate`` clears :func:`interval_alert_floor`,
    or the context drift channel exceeded its calibrated bound."""
    return bool(rate >= interval_alert_floor(p_percent) or drift_exceeded)


def _gmm_interval(
    outcome: ScenarioOutcome, sizing: MatrixSizing
) -> Tuple[str, Dict[str, float]]:
    rate = outcome.attack_detection_rate(sizing.p_percent)
    floor = interval_alert_floor(sizing.p_percent)
    return (
        "detect" if interval_detect(rate, sizing.p_percent) else "miss",
        {"detection_rate": _round(rate), "alert_floor": _round(floor)},
    )


#: Drift policy for matrix-sized windows.  The serving default
#: (``min_excess=0.02``) is tuned for 256-sample windows; at the 48–80
#: samples a matrix run scores, a few benign boundary flags already
#: exceed 2%, so the absolute margin is raised to 8% — a drift-flag
#: here means at least ~9% of post-injection intervals sat below θ_p,
#: an order of magnitude outside the calibrated 1% budget and above
#: the trajectory-perturbation noise band quiet scenarios produce.
MATRIX_DRIFT_POLICY = DriftPolicy(min_excess=0.08)


def _drift(
    outcome: ScenarioOutcome, sizing: MatrixSizing
) -> Tuple[str, Dict[str, float]]:
    start = outcome.scenario.attack_interval
    status = evaluate_drift(
        outcome.log_densities[start:],
        outcome.thresholds[sizing.p_percent],
        sizing.p_percent,
        policy=MATRIX_DRIFT_POLICY,
    )
    observed = -1.0 if status.observed_rate is None else status.observed_rate
    return (
        "drift-flag" if status.drifted else "no-drift",
        {
            "observed_rate": _round(observed),
            "expected_rate": _round(status.expected_rate),
            "samples": status.samples,
        },
    )


def _fpr_budget(
    outcome: ScenarioOutcome, sizing: MatrixSizing
) -> Tuple[str, Dict[str, float]]:
    pre = outcome.scenario.attack_interval
    fpr = outcome.pre_attack_fpr(sizing.p_percent)
    allowed = allowed_false_positive_rate(sizing.p_percent, pre)
    return (
        "within-budget" if fpr <= allowed else "over-budget",
        {"pre_attack_fpr": _round(fpr), "allowed_fpr": _round(allowed)},
    )


def _context(
    outcome: ScenarioOutcome, sizing: MatrixSizing
) -> Tuple[str, Dict[str, float]]:
    """Second modality: context score channel OR phase-drift channel.

    Detect when either the post-injection context flag rate clears the
    same alert floor the ``gmm-interval`` column uses, or the drift
    statistic exceeds its calibrated clean-stream bound (the channel
    that exposes mimicry's in-envelope padding).
    """
    if not outcome.has_context:
        raise RuntimeError(
            "scenario outcome carries no context-modality scores; "
            "the matrix must be built through run_scenario_experiment"
        )
    rate = outcome.context_detection_rate(sizing.p_percent)
    floor = interval_alert_floor(sizing.p_percent)
    detected = interval_detect(
        rate, sizing.p_percent, outcome.context_drift_exceeded
    )
    return (
        "detect" if detected else "miss",
        {
            "detection_rate": _round(rate),
            "alert_floor": _round(floor),
            "drift_max": _round(outcome.context_drift_max),
            "drift_bound": _round(outcome.context_drift_bound),
        },
    )


#: Column name → (vocabulary, scorer).  Order is the column order of
#: the emitted matrix.
DETECTOR_COLUMNS: Dict[
    str,
    Callable[[ScenarioOutcome, MatrixSizing], Tuple[str, Dict[str, float]]],
] = {
    "gmm-alarm": _gmm_alarm,
    "gmm-interval": _gmm_interval,
    "drift": _drift,
    "fpr-budget": _fpr_budget,
    "context": _context,
}

#: Legal outcomes per column (declared *and* observed values).
OUTCOME_VOCABULARY: Dict[str, Tuple[str, ...]] = {
    "gmm-alarm": ("detect", "miss"),
    "gmm-interval": ("detect", "miss"),
    "drift": ("drift-flag", "no-drift"),
    "fpr-budget": ("within-budget", "over-budget"),
    "context": ("detect", "miss"),
}


def validate_declarations(scenarios: Sequence[str]) -> None:
    """Refuse to build unless every scenario declares every cell.

    Raises ``ValueError`` naming the offending scenario and cell —
    this is the guard that makes an undeclared attack or detector
    column a hard error rather than a silently empty row.
    """
    problems: List[str] = []
    for name in scenarios:
        declared = dict(SCENARIOS[name].expected_outcomes)
        for column, vocabulary in OUTCOME_VOCABULARY.items():
            if column not in declared:
                problems.append(
                    f"{name!r} declares no expected outcome for "
                    f"detector column {column!r}"
                )
                continue
            value = declared.pop(column)
            if value not in vocabulary:
                problems.append(
                    f"{name!r} declares {value!r} for {column!r}; "
                    f"legal outcomes are {list(vocabulary)}"
                )
        for column in declared:
            problems.append(
                f"{name!r} declares unknown detector column {column!r}; "
                f"registered columns are {list(DETECTOR_COLUMNS)}"
            )
        for column in getattr(SCENARIOS[name], "expected_notes", {}):
            if column not in OUTCOME_VOCABULARY:
                problems.append(
                    f"{name!r} annotates unknown detector column "
                    f"{column!r}; registered columns are "
                    f"{list(DETECTOR_COLUMNS)}"
                )
    if problems:
        raise ValueError(
            "conformance declarations are incomplete:\n  "
            + "\n  ".join(problems)
        )


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixCell:
    """One scenario scored by one detector column."""

    scenario: str
    detector: str
    expected: str
    observed: str
    metrics: Mapping[str, float] = field(default_factory=dict)
    #: Free-text annotation from the attack's ``expected_notes`` —
    #: typically a declared miss pointing at the roadmap item that
    #: would close it.
    note: str = ""

    @property
    def matched(self) -> bool:
        return self.expected == self.observed

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "detector": self.detector,
            "expected": self.expected,
            "observed": self.observed,
            "matched": self.matched,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "note": self.note,
        }


@dataclass(frozen=True)
class ConformanceMatrix:
    """A complete, deterministic attack × detector scoring."""

    sizing: str
    p_percent: float
    scenarios: Tuple[str, ...]
    detectors: Tuple[str, ...]
    cells: Tuple[MatrixCell, ...]

    def cell(self, scenario: str, detector: str) -> MatrixCell:
        for cell in self.cells:
            if cell.scenario == scenario and cell.detector == detector:
                return cell
        raise KeyError(f"no cell ({scenario!r}, {detector!r})")

    def mismatches(self) -> List[MatrixCell]:
        return [cell for cell in self.cells if not cell.matched]

    @property
    def conformant(self) -> bool:
        return not self.mismatches()

    def to_dict(self) -> dict:
        """Canonical, JSON-ready form (stable key and cell order)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "sizing": self.sizing,
            "p_percent": self.p_percent,
            "scenarios": list(self.scenarios),
            "detectors": list(self.detectors),
            "conformant": self.conformant,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def digest(self) -> str:
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_matrix(
    sizing: MatrixSizing = TINY_SIZING,
    scenarios: Optional[Sequence[str]] = None,
    config=None,
    cache=None,
    use_memo: bool = True,
) -> ConformanceMatrix:
    """Score every scenario against every detector column.

    ``scenarios`` defaults to the full registry (sorted).  ``cache``
    optionally names an on-disk
    :class:`~repro.pipeline.cache.ArtifactCache` for the training,
    fit and scenario stages; ``use_memo`` controls the in-process
    artifact memo.
    """
    names = sorted(scenarios if scenarios is not None else SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
            )
    validate_declarations(names)

    artifacts = get_reference_artifacts(
        sizing.scale,
        config,
        seed=sizing.seed,
        use_cache=use_memo,
        cache=cache,
    )

    cells: List[MatrixCell] = []
    for name in names:
        outcome = run_scenario_experiment(
            name,
            artifacts,
            pre_intervals=sizing.pre_intervals,
            attack_intervals=sizing.attack_intervals,
            post_intervals=0,
            scenario_seed=sizing.scenario_seed,
            cache=cache,
        )
        declared = SCENARIOS[name].expected_outcomes
        notes = SCENARIOS[name].expected_notes
        for column, scorer in DETECTOR_COLUMNS.items():
            observed, metrics = scorer(outcome, sizing)
            cells.append(
                MatrixCell(
                    scenario=name,
                    detector=column,
                    expected=declared[column],
                    observed=observed,
                    metrics=metrics,
                    note=notes.get(column, ""),
                )
            )

    return ConformanceMatrix(
        sizing=sizing.name,
        p_percent=sizing.p_percent,
        scenarios=tuple(names),
        detectors=tuple(DETECTOR_COLUMNS),
        cells=tuple(cells),
    )

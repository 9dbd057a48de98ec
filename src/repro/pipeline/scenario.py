"""Attack-scenario execution and bookkeeping.

Runs an :class:`~repro.attacks.base.Attack` against a live platform the
way the paper's evaluation does: monitor normally for a while, inject
"some moments after" an interval boundary, keep monitoring, optionally
revert (qsort's exit in Figure 7), and keep monitoring again.  The
result carries the full MHM series plus the interval indices of every
event, from which per-interval ground-truth labels are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..attacks.base import Attack
from ..core.series import HeatMapSeries
from ..obs import span
from ..sim.platform import Platform

__all__ = ["ScenarioEvent", "ScenarioResult", "ScenarioRunner"]


@dataclass(frozen=True)
class ScenarioEvent:
    """A labelled instant of the scenario timeline."""

    label: str
    time_ns: int
    interval_index: int


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``syscalls`` is the per-interval syscall-frequency matrix aligned
    row-for-row with ``series`` (the context modality's input);
    ``start_interval_index`` is the platform interval index of row 0 —
    the phase key the drift channel needs when the scenario did not
    start on a fresh boot.
    """

    name: str
    series: HeatMapSeries
    events: list[ScenarioEvent] = field(default_factory=list)
    syscalls: Optional[np.ndarray] = None
    start_interval_index: int = 0

    def event(self, label: str) -> ScenarioEvent:
        for entry in self.events:
            if entry.label == label:
                return entry
        raise KeyError(f"scenario has no event {label!r}")

    @property
    def attack_interval(self) -> int:
        """Index (within the series) of the interval containing inject."""
        return self.event("inject").interval_index

    @property
    def revert_interval(self) -> Optional[int]:
        try:
            return self.event("revert").interval_index
        except KeyError:
            return None

    def ground_truth(self) -> np.ndarray:
        """Per-interval anomaly labels.

        Intervals from the injection up to (and including) the revert
        interval are anomalous; if the attack is never reverted, every
        interval from injection onward is anomalous.
        """
        labels = np.zeros(len(self.series), dtype=bool)
        start = self.attack_interval
        stop = self.revert_interval
        if stop is None:
            labels[start:] = True
        else:
            labels[start : stop + 1] = True
        return labels


class ScenarioRunner:
    """Drives attacks against one platform and collects labelled MHMs."""

    def __init__(self, platform: Platform):
        self.platform = platform

    def run(
        self,
        attack: Attack,
        pre_intervals: int,
        attack_intervals: int,
        post_intervals: int = 0,
        inject_offset_fraction: float = 0.3,
    ) -> ScenarioResult:
        """Execute one scenario.

        Parameters
        ----------
        attack:
            The attack to inject.
        pre_intervals:
            Normal-operation intervals before injection (Figure 7 uses
            ~250).
        attack_intervals:
            Intervals with the attack active.
        post_intervals:
            When positive, the attack is reverted after
            ``attack_intervals`` and monitoring continues for this many
            further intervals (requires a reversible attack).
        inject_offset_fraction:
            Where inside the interval the injection lands — the paper's
            "some moments after the 250th interval".
        """
        if pre_intervals < 0 or attack_intervals < 1 or post_intervals < 0:
            raise ValueError("interval counts out of range")
        if not 0.0 <= inject_offset_fraction < 1.0:
            raise ValueError("inject_offset_fraction must be in [0, 1)")
        if post_intervals > 0 and not attack.reversible:
            raise ValueError(
                f"attack {attack.name!r} is not reversible; "
                f"post_intervals must be 0"
            )

        platform = self.platform
        interval_ns = platform.config.interval_ns
        start_index = platform.intervals_completed
        archive_start = platform.archived_intervals
        events: list[ScenarioEvent] = []

        with span("scenario.pre"):
            platform.run_intervals(pre_intervals)

        offset = int(inject_offset_fraction * interval_ns)
        inject_at = platform.now + offset
        platform.sim.schedule_at(inject_at, attack.inject, platform)
        events.append(
            ScenarioEvent(
                label="inject",
                time_ns=inject_at,
                interval_index=platform.intervals_completed - start_index,
            )
        )
        with span("scenario.attack"):
            platform.run_intervals(attack_intervals)

        if post_intervals > 0:
            revert_at = platform.now + offset
            platform.sim.schedule_at(revert_at, attack.revert, platform)
            events.append(
                ScenarioEvent(
                    label="revert",
                    time_ns=revert_at,
                    interval_index=platform.intervals_completed - start_index,
                )
            )
            with span("scenario.post"):
                platform.run_intervals(post_intervals)

        series = platform.secure_core.series(start=archive_start)
        return ScenarioResult(
            name=attack.name,
            series=series,
            events=events,
            syscalls=platform.syscall_matrix(start=archive_start),
            start_interval_index=start_index,
        )

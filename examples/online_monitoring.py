#!/usr/bin/env python
"""Run-time monitoring on the secure core (Figure 2's loop).

The previous examples score heat maps *offline*.  This one follows the
paper's deployment model: the secure core receives each MHM as the
Memometer completes it, the trained detector judges it against θ_p,
and an alarm policy sits on top (K consecutive abnormal intervals)
while attacks hit the system live.  Each phase's window is scored with
one fused kernel call, as ``repro monitor`` does, and the alarm rule
(:func:`repro.learn.metrics.alarm_streaks`) runs over the whole
timeline, so a streak may span two phases.

Run:  python examples/online_monitoring.py
"""

import numpy as np

from repro import Platform, PlatformConfig, kernels
from repro.attacks import AppLaunchAttack, SyscallHijackRootkit
from repro.hw import AnalysisTimingModel
from repro.learn.metrics import alarm_streaks
from repro.pipeline import collect_training_data, train_detector

CONSECUTIVE_FOR_ALARM = 2


def main() -> None:
    config = PlatformConfig(seed=7)

    print("training the reference detector ...")
    data = collect_training_data(
        config, runs=4, intervals_per_run=200, validation_intervals=200
    )
    detector = train_detector(data, em_restarts=5, seed=0)
    scorer = kernels.FleetScorer.from_detectors(detector)
    theta = detector.threshold(1.0)

    platform = Platform(config.with_seed(2024))
    analysis_us = AnalysisTimingModel().analysis_time_us(
        platform.spec.num_cells,
        detector.num_eigenmemories_,
        detector.num_gaussians,
    )
    print(
        f"\nsecure-core analysis budget: "
        f"{detector.num_eigenmemories_} eigenmemories, "
        f"{detector.num_gaussians} Gaussians -> "
        f"{analysis_us:.0f} us per 10 ms interval\n"
    )

    phases = []  # (label, heat maps, log densities)

    def monitor(label, intervals):
        series = platform.collect_intervals(intervals)
        densities = scorer.score(series.matrix()).log_densities
        phases.append((label, list(series), densities))

    # Phase 1: quiet system.
    monitor("normal operation", 150)
    # Phase 2: an operator (or attacker) launches qsort.
    qsort = AppLaunchAttack()
    qsort.inject(platform)
    monitor("qsort running", 120)
    # Phase 3: qsort exits; the system should go quiet again.
    qsort.revert(platform)
    monitor("after qsort exit", 120)
    # Phase 4: the rootkit loads.
    SyscallHijackRootkit().inject(platform)
    monitor("rootkit loaded", 120)

    heat_maps = [m for _, maps, _ in phases for m in maps]
    densities = np.concatenate([d for _, _, d in phases])
    skipped = ~np.isfinite(densities)
    flags = (densities < theta) & ~skipped
    alarms = np.flatnonzero(
        alarm_streaks(flags, skipped) == CONSECUTIVE_FOR_ALARM
    )

    start = 0
    for label, maps, _ in phases:
        stop = start + len(maps)
        window = flags[start:stop]
        in_phase = alarms[(alarms >= start) & (alarms < stop)]
        first = heat_maps[in_phase[0]].interval_index if in_phase.size else None
        print(
            f"{label:<28} {len(maps):4d} intervals | "
            f"{int(window.sum()):3d} flagged ({window.mean():5.1%}) | "
            f"alarms {in_phase.size}"
            + (f" (first at interval {first})" if first is not None else "")
        )
        start = stop

    print("\nalarm log (interval, time, consecutive abnormal, log density):")
    interval_ns = platform.config.interval_ns
    for row in alarms:
        heat_map = heat_maps[row]
        print(
            f"  interval {heat_map.interval_index:4d}  "
            f"t={(heat_map.start_time_ns + interval_ns) / 1e9:6.2f}s  "
            f"streak={CONSECUTIVE_FOR_ALARM}  "
            f"ln Pr={densities[row]:9.1f}"
        )


if __name__ == "__main__":
    main()

"""Figure 10: log probability density when a rootkit hijacks read.

Paper observations: the load is flagged; afterwards "even such stealthy
activities showed somewhat low probability densities, though not always
statistically distinguishable", and the abnormal MHMs "appear
synchronized with sha (whose period is 100 ms)" because the per-call
read delays perturb sha's timing.

The benchmark measures one full secure-core analysis step
(mean-shift + projection + GMM density + theta test).
"""

import numpy as np

from repro.viz.ascii import render_series


def test_fig10_rootkit(benchmark, report, paper_artifacts, rootkit_outcome):
    outcome = rootkit_outcome
    detector = paper_artifacts.detector
    densities = outcome.log10_densities
    load = outcome.scenario.attack_interval
    flags = outcome.flags(1.0)

    # sha's period is 100 ms = 10 intervals: check the phase alignment
    # of the post-load flagged intervals.
    post_flagged = np.flatnonzero(flags[load + 2 :]) + load + 2
    phase_counts = np.bincount(post_flagged % 10, minlength=10)
    top_phase_share = (
        phase_counts.max() / phase_counts.sum() if phase_counts.sum() else 0.0
    )

    report.table(
        ["quantity", "paper", "measured"],
        [
            ["trace length", "400 intervals", f"{len(densities)}"],
            ["load interval", "~150", f"{load}"],
            ["load flagged @ theta_1", "yes", str(bool(flags[load] or flags[load + 1]))],
            [
                "pre-attack FPR @ theta_1",
                "low",
                f"{outcome.pre_attack_fpr(1.0):.1%}",
            ],
            [
                "post-hijack intervals below theta_1",
                "intermittent, not always",
                f"{flags[load + 2:].mean():.1%}",
            ],
            [
                "post-hijack density shift",
                "somewhat low",
                f"{np.median(densities[load + 2:]) - np.median(densities[:load]):+.2f} log10",
            ],
            [
                "flag concentration on one 10-interval phase",
                "synchronized with sha",
                f"{top_phase_share:.0%} on phase {int(phase_counts.argmax())}",
            ],
        ],
        title="Figure 10 — MHM densities under the read-hijacking rootkit",
    )
    report.add(
        "log10 Pr(M) series:",
        render_series(
            densities,
            thresholds={
                "t.5": detector.log10_threshold(0.5),
                "t1": detector.log10_threshold(1.0),
            },
            events={"load": load},
            height=14,
            width=100,
        ),
    )

    # Shape assertions.
    assert flags[load] or flags[load + 1]  # the load is caught
    assert outcome.pre_attack_fpr(1.0) <= 0.02
    post_rate = flags[load + 2 :].mean()
    assert 0.02 <= post_rate <= 0.8  # intermittent, not silent, not total
    assert np.median(densities[load + 2 :]) <= np.median(densities[:load])
    if post_flagged.size >= 5:
        # Flags cluster on few phases of the 100 ms hyper-pattern.
        assert top_phase_share >= 0.3

    heat_map = outcome.scenario.series[load + 7]
    benchmark(lambda: detector.is_anomalous(heat_map, 1.0))

"""Online monitoring on the one verdict path.

``repro monitor``/``repro attack`` score a window of MHMs with one fused
kernel call and judge it with the K-consecutive alarm rule
(:func:`repro.learn.metrics.alarm_streaks`).  These tests drive that
path directly: collect a window, score it, apply the rule.
"""

import json

import numpy as np
import pytest

from repro import kernels
from repro.attacks import ShellcodeAttack
from repro.cli import build_parser, main
from repro.hw.securecore import AnalysisTimingModel
from repro.learn.detector import MhmDetector
from repro.learn.metrics import alarm_streaks
from repro.sim.platform import Platform


def judge(detector, series, p_percent=1.0, consecutive=1):
    """(log densities, flags, alarm rows) of one window."""
    densities = (
        kernels.FleetScorer.from_detectors(detector)
        .score(series.matrix())
        .log_densities
    )
    skipped = ~np.isfinite(densities)
    flags = (densities < detector.threshold(p_percent)) & ~skipped
    streaks = alarm_streaks(flags, skipped)
    return densities, flags, np.flatnonzero(streaks == consecutive)


@pytest.fixture()
def platform(quick_artifacts):
    return Platform(quick_artifacts.config.with_seed(4242))


class TestConstruction:
    def test_unfitted_detector_rejected(self):
        # The commands read θ_p before they simulate anything.
        with pytest.raises(RuntimeError, match="fitted"):
            MhmDetector().threshold(1.0)

    def test_bad_consecutive_rejected(self, capsys):
        for command in ("monitor", "attack"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(
                    [command, "--detector", "d.npz", "--alarm-consecutive", "0"]
                )
            assert excinfo.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err


class TestMonitoring:
    def test_normal_window_is_quiet(self, quick_artifacts, platform):
        series = platform.collect_intervals(40)
        densities, flags, _ = judge(quick_artifacts.detector, series)
        assert densities.shape == (40,)
        assert flags.mean() <= 0.1

    def test_attack_raises_alarm(self, quick_artifacts, platform):
        platform.collect_intervals(20)
        ShellcodeAttack().inject(platform)
        series = platform.collect_intervals(30)
        _, flags, alarms = judge(quick_artifacts.detector, series)
        assert flags.sum() >= 10
        assert alarms.size

    def test_consecutive_policy_suppresses_singletons(self, quick_artifacts):
        platform = Platform(quick_artifacts.config.with_seed(4243))
        series = platform.collect_intervals(60)
        _, flags, alarms = judge(
            quick_artifacts.detector, series, consecutive=3
        )
        # Isolated normal-state flags never reach a 3-streak.
        assert alarms.size == 0

    def test_analysis_fits_interval_budget(self, quick_detector_path, capsys):
        """Section 5.4's point: 358 us of analysis inside a 10 ms
        interval leaves the secure core mostly idle."""
        main(
            [
                "monitor",
                "--detector",
                str(quick_detector_path),
                "--intervals",
                "10",
                "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["interval_us"] == 10_000.0
        assert 0.0 < report["analysis_budget_fraction"] < 0.2
        detector = MhmDetector.load(quick_detector_path)
        assert report["analysis_time_us"] == AnalysisTimingModel().analysis_time_us(
            1472, detector.num_eigenmemories_, detector.num_gaussians
        )

    def test_window_ignores_later_intervals(self, quick_artifacts, platform):
        series = platform.collect_intervals(5)
        before, _, _ = judge(quick_artifacts.detector, series)
        platform.run_intervals(5)
        after, _, _ = judge(quick_artifacts.detector, series)
        assert len(series) == 5
        np.testing.assert_array_equal(before, after)

    def test_reports_do_not_overlap(self, quick_artifacts, platform):
        first = platform.collect_intervals(10)
        second = platform.collect_intervals(10)
        assert [m.interval_index for m in first] == list(range(10))
        assert [m.interval_index for m in second] == list(range(10, 20))
        # Two windows judged apart flag what the two judged together do.
        both = platform.secure_core.series()
        _, flags, _ = judge(quick_artifacts.detector, both)
        _, first_flags, _ = judge(quick_artifacts.detector, first)
        _, second_flags, _ = judge(quick_artifacts.detector, second)
        np.testing.assert_array_equal(
            flags, np.concatenate([first_flags, second_flags])
        )

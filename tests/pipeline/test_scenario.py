"""Tests for the scenario runner."""

import numpy as np
import pytest

from repro.attacks import AppLaunchAttack, ShellcodeAttack
from repro.pipeline.scenario import ScenarioRunner
from repro.sim.platform import Platform, PlatformConfig


@pytest.fixture()
def runner(platform):
    return ScenarioRunner(platform)


class TestRun:
    def test_interval_accounting(self, runner):
        result = runner.run(
            AppLaunchAttack(), pre_intervals=10, attack_intervals=15, post_intervals=5
        )
        assert len(result.series) == 30
        assert result.attack_interval == 10
        assert result.revert_interval == 25

    def test_ground_truth_with_revert(self, runner):
        result = runner.run(
            AppLaunchAttack(), pre_intervals=5, attack_intervals=10, post_intervals=5
        )
        truth = result.ground_truth()
        assert truth.shape == (20,)
        assert not truth[:5].any()
        assert truth[5:16].all()
        assert not truth[16:].any()

    def test_ground_truth_without_revert(self, runner):
        result = runner.run(ShellcodeAttack(), pre_intervals=5, attack_intervals=10)
        truth = result.ground_truth()
        assert not truth[:5].any()
        assert truth[5:].all()

    def test_attack_actually_happened(self, runner, platform):
        runner.run(ShellcodeAttack(), pre_intervals=3, attack_intervals=3)
        assert not platform.kernel.aslr.enabled

    def test_events_have_timestamps_inside_interval(self, runner, platform):
        interval = platform.config.interval_ns
        result = runner.run(
            AppLaunchAttack(),
            pre_intervals=4,
            attack_intervals=4,
            post_intervals=2,
            inject_offset_fraction=0.5,
        )
        inject = result.event("inject")
        assert inject.time_ns == 4 * interval + interval // 2

    def test_unknown_event_raises(self, runner):
        result = runner.run(ShellcodeAttack(), pre_intervals=2, attack_intervals=2)
        with pytest.raises(KeyError):
            result.event("revert")
        assert result.revert_interval is None

    def test_irreversible_attack_cannot_have_post(self, runner):
        with pytest.raises(ValueError, match="not reversible"):
            runner.run(
                ShellcodeAttack(),
                pre_intervals=2,
                attack_intervals=2,
                post_intervals=2,
            )

    def test_invalid_counts(self, runner):
        with pytest.raises(ValueError):
            runner.run(AppLaunchAttack(), pre_intervals=-1, attack_intervals=5)
        with pytest.raises(ValueError):
            runner.run(AppLaunchAttack(), pre_intervals=1, attack_intervals=0)
        with pytest.raises(ValueError):
            runner.run(
                AppLaunchAttack(),
                pre_intervals=1,
                attack_intervals=1,
                inject_offset_fraction=1.0,
            )

    def test_series_continues_platform_history(self):
        platform = Platform(PlatformConfig(seed=5))
        platform.run_intervals(7)  # history before the scenario
        result = ScenarioRunner(platform).run(
            ShellcodeAttack(), pre_intervals=3, attack_intervals=3
        )
        assert len(result.series) == 6
        assert result.series[0].interval_index == 7

    def test_series_after_a_drained_history(self):
        platform = Platform(PlatformConfig(seed=5))
        platform.run_intervals(7)
        for _ in range(4):  # a stream consumer took these out
            platform.take_interval()
        result = ScenarioRunner(platform).run(
            ShellcodeAttack(), pre_intervals=3, attack_intervals=3
        )
        assert len(result.series) == 6
        assert result.syscalls.shape[0] == 6
        assert result.start_interval_index == 7
        assert [m.interval_index for m in result.series] == list(range(7, 13))

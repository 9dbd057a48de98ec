"""Device streams keep O(1) intervals; platforms keep their archive.

A :class:`~repro.sim.fleet.DeviceStream` takes each interval's MHM and
syscall row out of its platform as it emits them
(:meth:`~repro.sim.platform.Platform.take_interval`), so however long it
runs the platform holds at most one of each.  Everything else that
reads a platform (training, scenario runs, ``series()``) keeps the full
archive, and the taken intervals are the archived ones.  Per-task
scheduler statistics stay a fixed set of counters too.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.mhm import MemoryHeatMap
from repro.sim.fleet import DeviceSpec, DeviceStream
from repro.sim.kernel.scheduler import TaskStats
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.task import SyscallUse, TaskDefinition

#: One light task, no kworker: cheap enough for 10k intervals in tier-1.
LIGHT = PlatformConfig(
    tasks=(
        TaskDefinition(
            name="light",
            exec_time_ns=50_000,
            period_ns=1_000_000,
            syscalls=(SyscallUse("read", 1),),
            pagefaults_per_job=0.0,
        ),
    ),
    interval_ns=1_000_000,
    tick_period_ns=1_000_000,
    enable_kworker=False,
)


def test_ten_thousand_interval_stream_holds_one_interval():
    stream = DeviceStream(
        DeviceSpec(device_id="dev-0000", index=0, profile="baseline", seed=3),
        config=LIGHT,
    )
    platform = stream.platform
    held = 0
    for index in range(10_000):
        record = stream.next_interval()
        assert record.interval_index == index
        held = max(
            held,
            len(platform.secure_core.heatmaps),
            len(platform._syscall_rows),
        )
    assert held <= 1
    assert platform.intervals_completed == 10_000
    assert platform.memometer.intervals_completed == 10_000
    # Per-task accounting is a fixed set of counters, not a per-job log.
    stats = platform.scheduler.task("light").stats
    assert stats.completions >= 9_999
    assert all(
        type(getattr(stats, f.name)) is int for f in dataclasses.fields(stats)
    )
    assert stats.mean_response_ns == stats.response_sum_ns / stats.completions
    assert 0 < stats.mean_response_ns <= stats.max_response_ns


def test_taken_intervals_are_the_archived_ones():
    config = PlatformConfig(seed=21)
    archived = Platform(config)
    series = archived.collect_intervals(4)
    syscalls = archived.syscall_matrix()
    taken = Platform(config)
    for index in range(4):
        taken.run_intervals(1)
        heat_map, row = taken.take_interval()
        assert heat_map.interval_index == series[index].interval_index
        assert heat_map.start_time_ns == series[index].start_time_ns
        np.testing.assert_array_equal(heat_map.counts, series[index].counts)
        np.testing.assert_array_equal(row, syscalls[index])
    assert taken.intervals_completed == archived.intervals_completed == 4
    with pytest.raises(LookupError):
        taken.take_interval()
    # Later intervals are archived as usual and collected from there.
    assert len(taken.collect_intervals(2)) == 2
    assert taken.intervals_completed == 6


def test_heat_map_owns_a_copy_of_the_swap_buffer():
    platform = Platform(PlatformConfig(seed=22))
    platform.run_intervals(2)
    first, second = platform.heatmap_series()
    assert not np.shares_memory(first.counts, second.counts)
    assert not np.shares_memory(first.counts, platform.memometer._buffers[0])
    assert not np.shares_memory(first.counts, platform.memometer._buffers[1])
    assert first.counts.dtype == np.int64


def test_public_constructor_still_validates_and_copies():
    spec = PlatformConfig().spec
    counts = np.zeros(spec.num_cells, dtype=np.int64)
    heat_map = MemoryHeatMap(spec, counts)
    assert not np.shares_memory(heat_map.counts, counts)
    with pytest.raises(ValueError, match="non-negative"):
        MemoryHeatMap(spec, counts - 1)
    with pytest.raises(ValueError, match="shape"):
        MemoryHeatMap(spec, counts[:-1])


def test_task_stats_equal_a_per_job_log(monkeypatch):
    """Count, sum and max give exactly what a per-job list gave:
    ``np.mean`` of the list and its ``max``."""
    log = {}
    record_completion = TaskStats.record_completion

    def logging(stats, response_ns):
        log.setdefault(id(stats), []).append(response_ns)
        record_completion(stats, response_ns)

    monkeypatch.setattr(TaskStats, "record_completion", logging)
    platform = Platform(PlatformConfig(seed=23))
    platform.run_intervals(50)
    for stats in platform.scheduler.stats_summary().values():
        responses = log.get(id(stats), [])
        assert stats.completions == len(responses)
        assert stats.mean_response_ns == (
            float(np.mean(responses)) if responses else 0.0
        )
        assert stats.max_response_ns == max(responses, default=0)

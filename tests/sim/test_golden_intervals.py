"""Frozen simulator goldens: per-interval MHMs and end-of-run accounting.

``tests/fixtures/golden_sim_intervals.json`` holds, for a set of
platform scenarios, a digest of every interval's MHM counts and syscall
row plus the run's end state: scheduler statistics, kernel invocation
counts, the Memometer's snoop totals and the ``memometer.*`` /
``sim.events_executed`` counters.  The scenarios cover the device
profiles, the address path (``post-l1``), two monitored cores, a
dual-region watcher with a mid-interval reconfigure and detach, a
rootkit hijack (module-space footprints) and a mid-interval reconfigure
of the platform's own Memometer.

The simulator's hot path (when footprints are counted, how milestones
are run) may change; none of these values may.  Regenerate only for an
intentional change to the simulated behaviour, and review it like
code::

    python -m pytest tests/sim/test_golden_intervals.py --update-goldens
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.attacks import SyscallHijackRootkit
from repro.hw.memometer import ControlRegisters, Memometer
from repro.sim.fleet import profile_config
from repro.sim.kernel.scheduler import TaskStats
from repro.sim.kernel.layout import MODULE_SPACE_BASE, MODULE_SPACE_SIZE
from repro.sim.platform import Platform, PlatformConfig

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "golden_sim_intervals.json"
)

INTERVALS = 16


def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _run_plain(config: PlatformConfig, intervals: int = INTERVALS):
    platform = Platform(config)
    platform.run_intervals(intervals)
    return platform, {}


def _run_rootkit(config: PlatformConfig):
    platform = Platform(config)
    platform.run_intervals(INTERVALS // 2)
    SyscallHijackRootkit().inject(platform)
    platform.run_intervals(INTERVALS - INTERVALS // 2)
    return platform, {}


def _run_reconfigure(config: PlatformConfig):
    """Reset the platform's Memometer halfway through an interval."""
    platform = Platform(config)
    platform.run_intervals(5)
    platform.run_for(config.interval_ns // 2)
    platform.memometer.reconfigure(platform.memometer.registers)
    platform.run_for(config.interval_ns // 2)
    platform.run_intervals(INTERVALS - 6)
    return platform, {}


def _run_watcher(config: PlatformConfig):
    """A second Memometer on module space: retargeted and then detached
    halfway through intervals, read after every interval."""
    platform = Platform(config)
    watcher = Memometer(
        ControlRegisters(
            base_address=MODULE_SPACE_BASE,
            region_size=MODULE_SPACE_SIZE,
            granularity=8192,
            interval_ns=config.interval_ns,
        )
    )
    platform.kernel.attach_probe(watcher)
    half = config.interval_ns // 2
    reads = []
    for index in range(INTERVALS):
        if index == 4:
            SyscallHijackRootkit().inject(platform)
        if index == 9:
            platform.run_for(half)
            watcher.reconfigure(
                ControlRegisters(
                    base_address=MODULE_SPACE_BASE,
                    region_size=MODULE_SPACE_SIZE,
                    granularity=16384,
                    interval_ns=config.interval_ns,
                )
            )
            platform.run_for(config.interval_ns - half)
        elif index == 13:
            platform.run_for(half)
            platform.kernel.detach_probe(watcher)
            platform.run_for(config.interval_ns - half)
        else:
            platform.run_intervals(1)
        reads.append(_digest(watcher.active_counts()))
    return platform, {
        "watcher_counts": reads,
        "watcher_snooped": watcher.snooped_accesses,
        "watcher_accepted": watcher.accepted_accesses,
    }


SCENARIOS = {
    "baseline": lambda: _run_plain(profile_config("baseline").with_seed(31)),
    "rtos": lambda: _run_plain(profile_config("rtos").with_seed(32)),
    "netload": lambda: _run_plain(profile_config("netload").with_seed(33)),
    "post-l1": lambda: _run_plain(
        PlatformConfig(seed=34, placement="post-l1"), intervals=4
    ),
    "smp": lambda: _run_plain(PlatformConfig(seed=35, monitored_cores=2)),
    "dual-region": lambda: _run_watcher(PlatformConfig(seed=36)),
    "rootkit": lambda: _run_rootkit(PlatformConfig(seed=37)),
    "reconfigure": lambda: _run_reconfigure(PlatformConfig(seed=38)),
}


def _record(name: str, monkeypatch) -> dict:
    # TaskStats keeps no per-job list; digest each task's response
    # times as they are recorded, in the same <i8 bytes as before.
    response_hashes = {}
    record_completion = TaskStats.record_completion

    def digesting(stats, response_ns):
        response_hashes.setdefault(id(stats), hashlib.sha256()).update(
            np.asarray([response_ns], dtype="<i8").tobytes()
        )
        record_completion(stats, response_ns)

    monkeypatch.setattr(TaskStats, "record_completion", digesting)
    with obs.observed(with_tracing=False, with_logging=False) as (registry, _):
        platform, extra = SCENARIOS[name]()
        series = platform.heatmap_series()
        syscalls = platform.syscall_matrix()
        counters = {
            key: value["value"]
            for key, value in registry.snapshot().items()
            if key.startswith("memometer.") or key == "sim.events_executed"
        }
    schedulers = []
    for scheduler in platform.schedulers:
        schedulers.append(
            {
                "context_switches": scheduler.context_switches,
                "busy_ns": scheduler.busy_ns,
                "tasks": {
                    task: {
                        "releases": stats.releases,
                        "completions": stats.completions,
                        "deadline_misses": stats.deadline_misses,
                        "preemptions": stats.preemptions,
                        "total_user_ns": stats.total_user_ns,
                        "total_kernel_ns": stats.total_kernel_ns,
                        "response_times": response_hashes.get(
                            id(stats), hashlib.sha256()
                        ).hexdigest()[:16],
                    }
                    for task, stats in sorted(scheduler.stats_summary().items())
                },
            }
        )
    return {
        "mhm": [_digest(heat_map.counts) for heat_map in series],
        "syscalls": [_digest(row) for row in syscalls],
        "schedulers": schedulers,
        "invocation_counts": dict(sorted(platform.kernel.invocation_counts.items())),
        "snooped": platform.memometer.snooped_accesses,
        "accepted": platform.memometer.accepted_accesses,
        "counters": dict(sorted(counters.items())),
        **extra,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulator_matches_golden(name, update_goldens, monkeypatch):
    observed = json.loads(json.dumps(_record(name, monkeypatch)))
    goldens = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if update_goldens:
        goldens[name] = observed
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    assert name in goldens, (
        "simulator golden missing — generate it with `pytest "
        "tests/sim/test_golden_intervals.py --update-goldens`"
    )
    golden = goldens[name]
    assert observed["mhm"] == golden["mhm"]
    assert observed["syscalls"] == golden["syscalls"]
    assert observed == golden

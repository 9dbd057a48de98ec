"""The simulator's cell-space path is invisible in every result.

A kernel whose probes all count cells (the pre-L1 Memometer, or several
Memometers) hands them compiled footprints and iteration counts instead
of address bursts.  An extra :class:`TraceRecorder` forces the address
path, so running the same configuration with and without one proves
the random stream, the MHMs and the syscall histograms are unchanged —
with exact integer equality.
"""

import numpy as np
import pytest

from repro.attacks import ShellcodeAttack, SmmShadowAttack, SyscallHijackRootkit
from repro.hw.memometer import ControlRegisters, Memometer
from repro.sim.devices import NetworkDeviceConfig
from repro.sim.kernel.layout import (
    MODULE_SPACE_BASE,
    MODULE_SPACE_SIZE,
    default_layout,
)
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.trace import TraceRecorder

INTERVALS = 12

CONFIGS = {
    "default": PlatformConfig(seed=5),
    "rtos-no-jitter": PlatformConfig(seed=6, kernel_jitter_scale=0.0),
    "netload": PlatformConfig(
        seed=7, network_devices=(NetworkDeviceConfig(mean_rate_hz=400.0),)
    ),
    "smp": PlatformConfig(seed=8, monitored_cores=2),
    "granularity-512": PlatformConfig(seed=9, region_size=1 << 20, granularity=512),
}


def _run(config: PlatformConfig, record: bool, attack=None) -> Platform:
    platform = Platform(config)
    if record:
        platform.kernel.attach_probe(TraceRecorder())
    platform.run_intervals(INTERVALS // 2)
    if attack is not None:
        attack.inject(platform)
    platform.run_intervals(INTERVALS - INTERVALS // 2)
    return platform


def _assert_same_outputs(cell: Platform, address: Platform) -> None:
    np.testing.assert_array_equal(
        cell.heatmap_series().matrix(np.int64),
        address.heatmap_series().matrix(np.int64),
    )
    np.testing.assert_array_equal(cell.syscall_matrix(), address.syscall_matrix())
    assert cell.memometer.snooped_accesses == address.memometer.snooped_accesses
    assert cell.memometer.accepted_accesses == address.memometer.accepted_accesses
    assert cell.kernel.invocation_counts == address.kernel.invocation_counts


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_recorder_does_not_change_results(name):
    cell = _run(CONFIGS[name], record=False)
    address = _run(CONFIGS[name], record=True)
    assert cell.kernel.uses_cell_path
    assert not address.kernel.uses_cell_path
    _assert_same_outputs(cell, address)


@pytest.mark.parametrize(
    "attack", [SyscallHijackRootkit, ShellcodeAttack, SmmShadowAttack]
)
def test_attacks_identical_on_both_paths(attack):
    config = PlatformConfig(seed=11)
    _assert_same_outputs(
        _run(config, record=False, attack=attack()),
        _run(config, record=True, attack=attack()),
    )


def test_dual_region_memometers_stay_on_cell_path():
    def watched(record: bool):
        platform = Platform(PlatformConfig(seed=12))
        watcher = Memometer(
            ControlRegisters(
                base_address=MODULE_SPACE_BASE,
                region_size=MODULE_SPACE_SIZE,
                granularity=8192,
                interval_ns=platform.config.interval_ns,
            )
        )
        platform.kernel.attach_probe(watcher)
        if record:
            platform.kernel.attach_probe(TraceRecorder())
        platform.run_intervals(3)
        SyscallHijackRootkit().inject(platform)
        platform.run_intervals(3)
        return platform, watcher

    (cell, cell_watcher), (address, address_watcher) = watched(False), watched(True)
    assert cell.kernel.uses_cell_path
    assert cell_watcher.accepted_accesses > 0
    np.testing.assert_array_equal(
        cell_watcher.active_counts(), address_watcher.active_counts()
    )
    assert cell_watcher.snooped_accesses == address_watcher.snooped_accesses
    _assert_same_outputs(cell, address)


def test_detach_returns_to_cell_path():
    config = PlatformConfig(seed=13)
    switched = Platform(config)
    recorder = TraceRecorder()
    switched.kernel.attach_probe(recorder)
    assert not switched.kernel.uses_cell_path
    switched.run_intervals(3)
    switched.kernel.detach_probe(recorder)
    assert switched.kernel.uses_cell_path
    switched.run_intervals(3)
    recorded = len(recorder.bursts)
    assert recorded > 0

    plain = Platform(config)
    plain.run_intervals(6)
    _assert_same_outputs(switched, plain)
    assert len(recorder.bursts) == recorded  # nothing after the detach


def test_cache_placement_uses_address_path():
    platform = Platform(PlatformConfig(seed=14, placement="post-l1"))
    assert not platform.kernel.uses_cell_path


class TestSharedLayout:
    def test_platforms_share_one_layout(self):
        first = Platform(PlatformConfig(seed=1))
        second = Platform(PlatformConfig(seed=2))
        assert first.kernel.layout is second.kernel.layout is default_layout()

    def test_attacks_leave_layout_unchanged(self):
        layout = default_layout()
        functions = layout.functions
        geometry = [(f.name, f.address, f.size) for f in functions]
        platform = Platform(PlatformConfig(seed=3))
        platform.run_intervals(2)
        platform.kernel.modules.load("probe_lkm", 0x3000)
        SyscallHijackRootkit().inject(platform)
        SmmShadowAttack().inject(platform)
        platform.run_intervals(2)
        assert layout.functions is functions
        assert [(f.name, f.address, f.size) for f in layout.functions] == geometry
        assert layout.find(MODULE_SPACE_BASE) is None

    def test_functions_read_only(self):
        layout = default_layout()
        assert isinstance(layout.functions, tuple)
        with pytest.raises(AttributeError):
            layout.functions = ()

"""Tests for Scenario 3 semantics (syscall-hijacking rootkit)."""

import numpy as np
import pytest

from repro import kernels
from repro.attacks import AttackError, SyscallHijackRootkit
from repro.sim.engine import NS_PER_MS
from repro.sim.kernel.layout import KERNEL_TEXT_BASE
from repro.sim.trace import TraceRecorder


class TestInject:
    def test_hijacks_read(self, platform):
        attack = SyscallHijackRootkit()
        attack.inject(platform)
        assert platform.kernel.syscall_table.is_hijacked("read")
        entry = platform.kernel.syscall_table.hijacked_entry("read")
        assert entry.extra_latency_ns == 25_000

    def test_module_loaded_outside_monitored_region(self, platform):
        attack = SyscallHijackRootkit()
        attack.inject(platform)
        module = platform.kernel.modules.get("netfilter_helper")
        assert module.end_address <= KERNEL_TEXT_BASE
        for fn in module.functions:
            assert not platform.spec.contains(fn.address)

    def test_wrapper_footprint_is_invisible_to_mhm(self, platform):
        """The wrapper's fetches are filtered; the original handler's
        are not — Section 5.3's core observation."""
        attack = SyscallHijackRootkit()
        attack.inject(platform)
        recorder = TraceRecorder()
        platform.kernel.attach_probe(recorder)
        accepted_before = platform.memometer.accepted_accesses
        platform.kernel.invoke_syscall("read")
        wrapper_bursts = recorder.bursts_of_kind("hijack.read")
        original_bursts = recorder.bursts_of_kind("syscall.read")
        assert wrapper_bursts and original_bursts
        # Every wrapper address lies outside the monitored region.
        spec = platform.spec
        for burst in wrapper_bursts:
            _, accepted = kernels.count_cells(
                burst.addresses,
                base_address=spec.base_address,
                region_size=spec.region_size,
                shift=spec.shift,
                num_cells=spec.num_cells,
            )
            assert accepted == 0
        assert platform.memometer.accepted_accesses > accepted_before

    def test_hijack_adds_latency(self, platform):
        attack = SyscallHijackRootkit(extra_latency_ns=50_000)
        rng_latencies = [platform.kernel.invoke_syscall("read") for _ in range(20)]
        baseline = np.mean(rng_latencies)
        attack.inject(platform)
        hijacked = np.mean(
            [platform.kernel.invoke_syscall("read") for _ in range(20)]
        )
        assert hijacked > baseline + 40_000

    def test_load_spike_visible(self, platform):
        """Figure 9: the init_module burst dominates the interval."""
        normal = platform.collect_intervals(10)
        normal_mean = normal.traffic_volumes().mean()
        SyscallHijackRootkit().inject(platform)
        spike_interval = platform.collect_intervals(1)[0]
        assert spike_interval.total_accesses > 3 * normal_mean

    def test_double_inject_rejected(self, platform):
        attack = SyscallHijackRootkit()
        attack.inject(platform)
        with pytest.raises(AttackError, match="already loaded"):
            attack.inject(platform)

    def test_unknown_syscall_rejected(self, platform):
        attack = SyscallHijackRootkit(syscall="frobnicate")
        with pytest.raises(AttackError, match="no syscall"):
            attack.inject(platform)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SyscallHijackRootkit(extra_latency_ns=-1)


class TestRevert:
    def test_rmmod_restores_table(self, platform):
        attack = SyscallHijackRootkit()
        attack.inject(platform)
        platform.run_for(50 * NS_PER_MS)
        attack.revert(platform)
        assert not platform.kernel.syscall_table.is_hijacked("read")
        assert not platform.kernel.modules.is_loaded("netfilter_helper")

    def test_revert_before_inject_rejected(self, platform):
        with pytest.raises(AttackError, match="not loaded"):
            SyscallHijackRootkit().revert(platform)

    def test_traffic_normal_after_hijack(self, platform):
        """Figure 9's aftermath: volume statistically unchanged."""
        normal = platform.collect_intervals(30).traffic_volumes()
        attack = SyscallHijackRootkit()
        attack.inject(platform)
        platform.run_intervals(2)  # skip the load spike
        after = platform.collect_intervals(30).traffic_volumes()
        assert abs(after.mean() - normal.mean()) < 0.15 * normal.mean()

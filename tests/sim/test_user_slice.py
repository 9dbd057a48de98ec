"""Differential suite: user slices counted as misses vs ``observe_burst``.

Every dispatch draws a token user-space slice.  When every probe's
region misses the slice's whole span, the kernel has each probe count
the miss (``Memometer.observe_miss``) instead of building an
``AccessBurst``.  The oracle is ``observe_burst`` on the burst itself:
snoop totals, buffers, bounds and every ``memometer.*`` counter must be
equal.  A region that overlaps the span must still get the burst, and
a whole platform must simulate identically with the shortcut on or
forced off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hw.memometer import ControlRegisters, Memometer
from repro.sim.engine import Simulator
from repro.sim.kernel.kernel import Kernel
from repro.sim.kernel.layout import USER_SPACE_BASE, default_layout
from repro.sim.kernel.scheduler import (
    _USER_SLICE_ACCESSES,
    _USER_SLICE_SPAN,
    _USER_SLICE_WEIGHTS,
    _USER_SLICE_WORDS,
)
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.trace import AccessBurst
from tests.hw.test_deferred_flush import _assert_same, _counters, _observed


class AddressProbe:
    """A probe that needs addresses: attaching it turns the shortcut off."""

    def __init__(self):
        self.user_accesses = 0

    def observe_burst(self, burst):
        if burst.kind == "user":
            self.user_accesses += burst.total_accesses


@st.composite
def slices(draw):
    """A Memometer region placed anywhere from well below to well above
    a user slice's span, and the slice's word offsets."""
    user_base = USER_SPACE_BASE + draw(st.integers(0, 64)) * 0x10_0000
    granularity = draw(st.sampled_from([512, 2048, 8192]))
    cells = draw(st.integers(1, 2048))
    size = granularity * cells - draw(st.integers(0, granularity - 1))
    base = user_base + draw(
        st.integers(-(size + 0x10000), _USER_SLICE_SPAN + 0x10000)
    )
    return {
        "registers": ControlRegisters(
            base_address=max(0, base),
            region_size=size,
            granularity=granularity,
            interval_ns=10_000_000,
        ),
        "user_base": user_base,
        "words": np.asarray(
            draw(
                st.lists(
                    st.integers(0, _USER_SLICE_WORDS - 1),
                    min_size=len(_USER_SLICE_WEIGHTS),
                    max_size=len(_USER_SLICE_WEIGHTS),
                )
            ),
            dtype=np.int64,
        ),
        "slices": draw(st.integers(1, 4)),
    }


@given(case=slices())
@settings(max_examples=200, deadline=None)
def test_miss_counts_like_observe_burst(case):
    regs, base = case["registers"], case["user_base"]
    shortcut, s_registry = _observed(Memometer, regs)
    oracle, o_registry = _observed(Memometer, regs)
    kernel = Kernel(Simulator(), None, layout=default_layout())
    kernel.attach_probe(shortcut)
    burst = AccessBurst(
        0, base + case["words"] * 4, _USER_SLICE_WEIGHTS, kind="user"
    )
    for _ in range(case["slices"]):
        counted = kernel.count_missed_burst(
            base, base + _USER_SLICE_SPAN, _USER_SLICE_ACCESSES
        )
        if not counted:
            shortcut.observe_burst(burst)
        oracle.observe_burst(burst)
    # The shortcut is taken exactly when the region misses the span.
    span_end = base + _USER_SLICE_SPAN
    overlaps = (
        base < regs.base_address + regs.region_size
        and span_end >= regs.base_address
    )
    assert counted is not overlaps
    _assert_same(shortcut, s_registry, oracle, o_registry)


@pytest.mark.parametrize(
    "region_start, expected",
    [
        (-0x1000, True),  # region ends one byte below the span
        (-0x0FFF, False),  # region's last byte is the span's first
        (_USER_SLICE_SPAN, False),  # region starts on the span's last byte
        (_USER_SLICE_SPAN + 1, True),  # region starts one byte above it
    ],
)
def test_miss_decision_at_the_span_edges(region_start, expected):
    user_base = USER_SPACE_BASE + 0x10_0000
    memometer = Memometer(
        ControlRegisters(
            base_address=user_base + region_start,
            region_size=0x1000,
            granularity=512,
            interval_ns=10_000_000,
        )
    )
    kernel = Kernel(Simulator(), None, layout=default_layout())
    kernel.attach_probe(memometer)
    span_end = user_base + _USER_SLICE_SPAN
    assert memometer.misses(user_base, span_end) is expected
    assert kernel.count_missed_burst(user_base, span_end, 32) is expected
    assert memometer.snooped_accesses == (32 if expected else 0)


def test_overlapping_region_takes_the_burst_path():
    """A second Memometer watching user space gets the slices' fetches."""
    config = PlatformConfig(seed=5)
    registers = ControlRegisters(
        base_address=USER_SPACE_BASE,
        region_size=0x80_0000,
        granularity=8192,
        interval_ns=config.interval_ns,
    )
    watchers = []
    for forced in (False, True):
        platform = Platform(config)
        watcher = Memometer(registers)
        platform.kernel.attach_probe(watcher)
        if forced:
            platform.kernel.attach_probe(AddressProbe())
        platform.run_intervals(2)
        watchers.append(watcher)
    assert watchers[0].accepted_accesses > 0
    np.testing.assert_array_equal(
        watchers[0].active_counts(), watchers[1].active_counts()
    )
    assert watchers[0].snooped_accesses == watchers[1].snooped_accesses
    assert watchers[0].accepted_accesses == watchers[1].accepted_accesses


@pytest.mark.parametrize(
    "config",
    [PlatformConfig(seed=9), PlatformConfig(seed=10, monitored_cores=2)],
    ids=["uniprocessor", "smp"],
)
def test_platform_identical_with_shortcut_forced_off(config):
    """End to end: heat maps, snoop totals and every ``memometer.*``
    counter, with the shortcut as chosen vs forced off by an attached
    address-consuming probe."""
    runs = []
    for forced in (False, True):
        with obs.observed(with_tracing=False, with_logging=False) as (registry, _):
            platform = Platform(config)
            probe = AddressProbe()
            if forced:
                platform.kernel.attach_probe(probe)
            platform.run_intervals(3)
            counters = _counters(registry)
        runs.append((platform, counters, probe))
    (plain, plain_counters, _), (forced, forced_counters, probe) = runs
    assert probe.user_accesses > 0
    for a, b in zip(plain.heatmap_series(), forced.heatmap_series()):
        np.testing.assert_array_equal(a.counts, b.counts)
    assert plain.memometer.snooped_accesses == forced.memometer.snooped_accesses
    assert plain.memometer.accepted_accesses == forced.memometer.accepted_accesses
    assert plain_counters == forced_counters
    assert plain_counters["memometer.bursts"] > 0

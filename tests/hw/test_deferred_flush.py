"""Differential suite: the Memometer's deferred flush vs immediate counting.

The simulator hands each kernel-service invocation to the Memometer as
``defer_footprint(footprint, z, jitter_scale)`` and the Memometer counts
the queue at its next flush.  The oracle counts every invocation at
once through ``observe_footprint(footprint, sample_iterations-from-z)``.
For any interleaving of invocations with the Memometer's other inputs
and reads (address bursts, scalar snoops, mid-interval reads of the
buffer and the snoop totals, interval swaps, reconfiguration, a probe
detach) the two must agree exactly: buffers, heat maps, snoop totals,
``_filled`` bounds and every ``memometer.*`` counter, saturation
included, under either kernels backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.hw.memometer import COUNTER_MAX, ControlRegisters, Memometer
from repro.sim.engine import Simulator
from repro.sim.kernel.footprint import jitter_iterations
from repro.sim.kernel.kernel import Kernel
from repro.sim.kernel.layout import KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE
from repro.sim.trace import AccessBurst
from tests.hw.test_footprint_differential import COMPILER, registers, steps

SCALES = (0.0, 0.5, 1.0, 2.5)
#: The prefill leaves saturation at most this far away.
NEAR_SATURATION = 50_000


def _iterations(footprint, z, jitter_scale):
    """``sample_iterations`` from an existing draw (``z`` is not written)."""
    return jitter_iterations(
        z.copy(), footprint.jitters * jitter_scale, footprint.mean_iterations
    ).astype(np.int64)


class ImmediateMemometer(Memometer):
    """The oracle: counts each deferred invocation at once."""

    def defer_footprint(self, footprint, z, jitter_scale=1.0):
        self.observe_footprint(footprint, _iterations(footprint, z, jitter_scale))


def _observed(cls, regs):
    with obs.observed(with_tracing=False, with_logging=False) as (registry, _):
        return cls(regs), registry


def _counters(registry) -> dict:
    return {
        name: value["value"]
        for name, value in registry.snapshot().items()
        if name.startswith("memometer.")
    }


def _assert_same(deferred, d_registry, immediate, i_registry):
    np.testing.assert_array_equal(deferred.active_counts(), immediate.active_counts())
    assert deferred.snooped_accesses == immediate.snooped_accesses
    assert deferred.accepted_accesses == immediate.accepted_accesses
    assert deferred._filled == immediate._filled
    assert _counters(d_registry) == _counters(i_registry)


def _prefill_burst(regs, mode, headroom, cell) -> AccessBurst:
    """Cells within ``headroom`` of the counter limit: one cell (so the
    ``_filled`` bound crosses COUNTER_MAX partway) or every cell (the
    bound is already past it)."""
    spec = regs.spec
    if mode == "one":
        cells = np.array([cell % spec.num_cells])
    else:
        cells = np.arange(spec.num_cells)
    addresses = spec.base_address + cells * spec.granularity
    weights = np.full(len(cells), COUNTER_MAX - headroom, dtype=np.int64)
    return AccessBurst(0, addresses, weights)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("invoke"),
            st.integers(0, 2**16),
            st.sampled_from(SCALES),
            st.integers(1, 6),
        ),
        st.tuples(st.just("counts")),
        st.tuples(st.just("totals")),
        st.tuples(st.just("boundary")),
        st.tuples(st.just("burst"), st.integers(0, 2**32 - 1), st.booleans()),
        st.tuples(st.just("scalar"), st.integers(-4096, 2**22)),
        st.tuples(st.just("reconfigure"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=30,
)


@st.composite
def scenarios(draw):
    regs = draw(registers())
    footprints = [
        COMPILER.compile(draw(st.lists(steps(regs), min_size=1, max_size=6)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return {
        "registers": regs,
        "retarget": draw(registers()),
        "footprints": footprints,
        "prefill": draw(st.sampled_from([None, "one", "all"])),
        "headroom": draw(st.integers(0, NEAR_SATURATION)),
        "cell": draw(st.integers(0, 2**16)),
        "ops": draw(operations),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@given(case=scenarios())
@settings(max_examples=40, deadline=None)
def test_deferred_flush_equals_immediate_counting(backend, case):
    regs = case["registers"]
    deferred, d_registry = _observed(Memometer, regs)
    immediate, i_registry = _observed(ImmediateMemometer, regs)
    meters = (deferred, immediate)
    rng = np.random.default_rng(case["seed"])
    footprints = case["footprints"]
    register_sets = (regs, case["retarget"])
    with kernels.use_backend(backend):
        if case["prefill"] is not None:
            burst = _prefill_burst(regs, case["prefill"], case["headroom"], case["cell"])
            for meter in meters:
                meter.observe_burst(burst)
        for time_ns, op in enumerate(case["ops"], start=1):
            kind = op[0]
            if kind == "invoke":
                _, pick, scale, repeats = op
                footprint = footprints[pick % len(footprints)]
                for _ in range(repeats):
                    z = rng.standard_normal(footprint.num_steps)
                    before = z.copy()
                    for meter in meters:
                        meter.defer_footprint(footprint, z, scale)
                    np.testing.assert_array_equal(z, before)
            elif kind == "counts":
                np.testing.assert_array_equal(
                    deferred.active_counts(), immediate.active_counts()
                )
            elif kind == "totals":
                assert deferred.snooped_accesses == immediate.snooped_accesses
                assert deferred.accepted_accesses == immediate.accepted_accesses
            elif kind == "boundary":
                maps = [meter.interval_boundary(time_ns) for meter in meters]
                np.testing.assert_array_equal(maps[0].counts, maps[1].counts)
                assert maps[0].interval_index == maps[1].interval_index
            elif kind == "burst":
                _, seed, inside = op
                burst_rng = np.random.default_rng(seed)
                span = meters[0].registers
                low = span.base_address if inside else span.base_address - 2**20
                addresses = burst_rng.integers(
                    low, span.base_address + span.region_size, size=16
                )
                if not inside:
                    addresses = np.minimum(addresses, span.base_address - 1)
                burst = AccessBurst(time_ns, addresses, burst_rng.integers(1, 5, 16))
                for meter in meters:
                    meter.observe_burst(burst)
            elif kind == "scalar":
                for meter in meters:
                    meter.observe(meter.registers.base_address + op[1], 3)
            elif kind == "reconfigure":
                for meter in meters:
                    meter.reconfigure(register_sets[op[1]])
    _assert_same(deferred, d_registry, immediate, i_registry)


@pytest.mark.parametrize("headroom", [0, 100, 5_000, NEAR_SATURATION])
def test_bound_crossing_inside_one_flush_replays_in_order(headroom):
    """One cell pre-filled ``headroom`` below the limit; the interval's
    invocations take the bound past COUNTER_MAX inside a single flush,
    so the flush must replay them through the clamp."""
    regs = ControlRegisters(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 2048, 10_000_000)
    deferred, d_registry = _observed(Memometer, regs)
    immediate, i_registry = _observed(ImmediateMemometer, regs)
    kernel = Kernel(Simulator(), np.random.default_rng(headroom))
    services = [kernel.services.get(name) for name in kernel.services.names()]
    footprint = services[0].footprint
    binned = footprint.cell_counts(regs.base_address, regs.region_size, regs.spec.shift)
    cell = int(binned.cells[0])
    burst = AccessBurst(
        0, [regs.base_address + cell * regs.granularity], [COUNTER_MAX - headroom]
    )
    for meter in (deferred, immediate):
        meter.observe_burst(burst)
    rng = np.random.default_rng(7)
    added = 0  # to the pre-filled cell, whose column is binned.weights[:, 2]
    while added <= headroom:
        z = rng.standard_normal(footprint.num_steps)
        added += int(_iterations(footprint, z, 1.0) @ binned.weights[:, 2])
        for meter in (deferred, immediate):
            meter.defer_footprint(footprint, z, 1.0)
    assert deferred._pending  # nothing counted yet
    _assert_same(deferred, d_registry, immediate, i_registry)
    assert deferred.active_counts()[cell] == COUNTER_MAX
    assert _counters(d_registry)["memometer.saturated"] > 0


def test_flush_counts_bursts_per_invocation():
    regs = ControlRegisters(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 2048, 10_000_000)
    deferred, registry = _observed(Memometer, regs)
    kernel = Kernel(Simulator(), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    names = kernel.services.names()
    for name in names[:7]:
        footprint = kernel.services.get(name).footprint
        deferred.defer_footprint(footprint, rng.standard_normal(footprint.num_steps))
    assert _counters(registry)["memometer.bursts"] == 0  # emitted at the flush
    deferred.flush_footprints()
    assert _counters(registry)["memometer.bursts"] == 7
    deferred.flush_footprints()  # an empty flush counts nothing
    assert _counters(registry)["memometer.bursts"] == 7


@given(
    seed=st.integers(0, 2**32 - 1),
    detach_after=st.integers(0, 80),
    invocations=st.integers(1, 100),
    jitter_scale=st.sampled_from(SCALES),
)
@settings(max_examples=25, deadline=None)
def test_kernel_sinks_share_one_draw_and_detach_flushes(
    seed, detach_after, invocations, jitter_scale
):
    """Two regions, each watched by a deferred Memometer and by the
    immediate oracle, all four on one kernel: every probe gets the same
    draw.  The kernel-text pair is detached mid-interval; the detach
    counts what the deferred Memometer had queued, and nothing reaches
    either afterwards."""
    text = ControlRegisters(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 2048, 10_000_000)
    coarse = ControlRegisters(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 8192, 10_000_000)
    deferred, d_registry = _observed(Memometer, text)
    immediate, i_registry = _observed(ImmediateMemometer, text)
    watcher, w_registry = _observed(Memometer, coarse)
    watcher_oracle, wo_registry = _observed(ImmediateMemometer, coarse)
    kernel = Kernel(Simulator(), np.random.default_rng(seed), jitter_scale=jitter_scale)
    for probe in (deferred, immediate, watcher, watcher_oracle):
        kernel.attach_probe(probe)
    assert kernel.uses_cell_path
    names = kernel.services.names()
    pick = np.random.default_rng(seed + 1)
    detached = None
    for step in range(invocations):
        if step == detach_after:
            kernel.detach_probe(deferred)
            kernel.detach_probe(immediate)
            assert not deferred._pending
            _assert_same(deferred, d_registry, immediate, i_registry)
            detached = deferred.snooped_accesses
        kernel.run_service(names[int(pick.integers(len(names)))])
    if detached is not None:
        assert deferred.snooped_accesses == detached
    _assert_same(deferred, d_registry, immediate, i_registry)
    _assert_same(watcher, w_registry, watcher_oracle, wo_registry)

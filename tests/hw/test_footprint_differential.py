"""Differential suite: the Memometer's cell-space path vs its address path.

``Memometer.observe_footprint`` counts a kernel-service invocation from
its per-step iteration counts and the footprint's precompiled steps x
cells matrix; ``Memometer.observe_burst`` counts the same invocation
expanded into explicit fetch addresses.  For every footprint, region,
granularity and buffer state the two must leave identical buffers,
snoop statistics and ``memometer.*`` counters — integer equality, no
tolerance — under either kernels backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.hw.memometer import COUNTER_MAX, MAX_CELLS, ControlRegisters, Memometer
from repro.sim.kernel.footprint import FootprintCompiler, FootprintStep
from repro.sim.kernel.layout import (
    KERNEL_TEXT_BASE,
    KERNEL_TEXT_SIZE,
    MODULE_SPACE_BASE,
    MODULE_SPACE_SIZE,
    default_layout,
)
from repro.sim.trace import AccessBurst

LAYOUT = default_layout()
COMPILER = FootprintCompiler(LAYOUT)
MAX_STEP_BYTES = 0x4000


@st.composite
def registers(draw) -> ControlRegisters:
    """A region inside kernel text at 512 B .. 8 KB granularity."""
    granularity = 2 ** draw(st.integers(9, 13))
    size = draw(
        st.integers(granularity // 2, min(KERNEL_TEXT_SIZE, granularity * MAX_CELLS))
    )
    base = KERNEL_TEXT_BASE + draw(st.integers(0, KERNEL_TEXT_SIZE - size))
    return ControlRegisters(
        base_address=base,
        region_size=size,
        granularity=granularity,
        interval_ns=10_000_000,
    )


def _step_params():
    return {
        "iterations": st.floats(0.5, 40.0),
        "coverage": st.floats(0.05, 1.0),
        "jitter": st.floats(0.0, 0.5),
    }


def _explicit(draw, address: int, size: int) -> FootprintStep:
    params = {k: draw(v) for k, v in _step_params().items()}
    return FootprintStep(function=None, address=address, size=size, **params)


@st.composite
def steps(draw, regs: ControlRegisters) -> FootprintStep:
    base, end = regs.base_address, regs.base_address + regs.region_size
    kind = draw(st.sampled_from(["symbol", "near", "low", "high", "module"]))
    if kind == "symbol":
        fn = LAYOUT.functions[draw(st.integers(0, len(LAYOUT) - 1))]
        params = {k: draw(v) for k, v in _step_params().items()}
        return FootprintStep(function=fn.name, **params)
    size = draw(st.integers(1, MAX_STEP_BYTES))
    if kind == "near":  # anywhere around the region, in or out
        address = base + draw(st.integers(-MAX_STEP_BYTES, regs.region_size))
    elif kind == "low":  # straddles base
        address = base - draw(st.integers(1, size))
    elif kind == "high":  # straddles base + size
        address = end - draw(st.integers(1, size))
    else:  # wholly in module space
        address = MODULE_SPACE_BASE + draw(
            st.integers(0, MODULE_SPACE_SIZE - MAX_STEP_BYTES)
        )
    return _explicit(draw, max(address, 0), size)


@st.composite
def cases(draw):
    regs = draw(registers())
    footprint = COMPILER.compile(draw(st.lists(steps(regs), min_size=1, max_size=8)))
    return {
        "registers": regs,
        "footprint": footprint,
        "jitter_scale": draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        "headroom": draw(st.one_of(st.none(), st.integers(0, 4096))),
        "invocations": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _observed_memometer(regs: ControlRegisters):
    with obs.observed(with_tracing=False, with_logging=False) as (registry, _):
        return Memometer(regs), registry


def _prefill(memometer: Memometer, headroom, rng) -> None:
    """Fill every cell to within ``headroom`` of saturation."""
    if headroom is None:
        return
    spec = memometer.spec
    addresses = spec.base_address + np.arange(spec.num_cells) * spec.granularity
    weights = COUNTER_MAX - rng.integers(0, headroom + 1, size=spec.num_cells)
    memometer.observe_burst(AccessBurst(0, addresses, weights))


def _memometer_counters(registry) -> dict:
    return {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("memometer.")
    }


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@given(case=cases())
@settings(max_examples=25, deadline=None)
def test_cell_path_equals_address_path(backend, case):
    regs, footprint = case["registers"], case["footprint"]
    cell, cell_registry = _observed_memometer(regs)
    address, address_registry = _observed_memometer(regs)
    with kernels.use_backend(backend):
        _prefill(cell, case["headroom"], np.random.default_rng(case["seed"]))
        _prefill(address, case["headroom"], np.random.default_rng(case["seed"]))
        rng = np.random.default_rng(case["seed"])
        for _ in range(case["invocations"]):
            iters = footprint.sample_iterations(rng, case["jitter_scale"])
            cell.observe_footprint(footprint, iters)
            address.observe_burst(
                AccessBurst(
                    0, footprint.addresses, np.repeat(iters, footprint.step_lengths)
                )
            )

    np.testing.assert_array_equal(cell.active_counts(), address.active_counts())
    assert cell.snooped_accesses == address.snooped_accesses
    assert cell.accepted_accesses == address.accepted_accesses
    assert _memometer_counters(cell_registry) == _memometer_counters(address_registry)


@given(case=cases())
@settings(max_examples=25, deadline=None)
def test_sample_is_expanded_sample_iterations(case):
    """Both paths consume the identical random draw."""
    footprint, scale = case["footprint"], case["jitter_scale"]
    iters = footprint.sample_iterations(np.random.default_rng(case["seed"]), scale)
    addresses, weights = footprint.sample(np.random.default_rng(case["seed"]), scale)
    np.testing.assert_array_equal(addresses, footprint.addresses)
    np.testing.assert_array_equal(weights, np.repeat(iters, footprint.step_lengths))


@pytest.mark.parametrize("headroom, saturated", [(2, 1), (3, 0), (4, 0)])
def test_saturation_counted_like_address_path(headroom, saturated):
    """Three fetches into a cell ``headroom`` short of the counter limit:
    only an update that would pass COUNTER_MAX counts as saturated."""
    regs = ControlRegisters(
        base_address=KERNEL_TEXT_BASE,
        region_size=KERNEL_TEXT_SIZE,
        granularity=2048,
        interval_ns=10_000_000,
    )
    footprint = COMPILER.compile(
        [FootprintStep(function=None, address=KERNEL_TEXT_BASE, size=16)]
    )
    iters = np.array([3], dtype=np.int64)
    results = []
    for observe in ("footprint", "burst"):
        memometer, registry = _observed_memometer(regs)
        memometer.observe_burst(
            AccessBurst(0, [KERNEL_TEXT_BASE], [COUNTER_MAX - headroom])
        )
        if observe == "footprint":
            memometer.observe_footprint(footprint, iters)
        else:
            memometer.observe_burst(AccessBurst(0, footprint.addresses, iters))
        results.append((memometer.active_counts(), _memometer_counters(registry)))
    (cell_counts, cell_metrics), (addr_counts, addr_metrics) = results
    assert cell_counts[0] == min(COUNTER_MAX, COUNTER_MAX - headroom + 3)
    np.testing.assert_array_equal(cell_counts, addr_counts)
    assert cell_metrics == addr_metrics
    assert cell_metrics["memometer.saturated"]["value"] == saturated


def test_cell_counts_cached_and_read_only():
    footprint = COMPILER.compile(
        [FootprintStep(function="vfs_read"), FootprintStep(function="memcpy")]
    )
    first = footprint.cell_counts(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 11)
    assert footprint.cell_counts(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 11) is first
    assert footprint.cell_counts(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 12) is not first
    assert not first.weights.flags.writeable
    assert not first.cells.flags.writeable
    # Both symbols lie wholly inside kernel text: every fetch is accepted.
    np.testing.assert_array_equal(first.weights[:, 0], footprint.step_lengths)
    np.testing.assert_array_equal(first.weights[:, 1], footprint.step_lengths)
    np.testing.assert_array_equal(
        first.weights[:, 2:].sum(axis=1), footprint.step_lengths
    )


def test_footprint_outside_region_is_all_filtered():
    footprint = COMPILER.compile(
        [FootprintStep(function=None, address=MODULE_SPACE_BASE, size=0x800)]
    )
    binned = footprint.cell_counts(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 11)
    assert binned.cells.size == 0
    memometer, registry = _observed_memometer(
        ControlRegisters(KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, 2048, 10_000_000)
    )
    memometer.observe_footprint(footprint, np.array([5], dtype=np.int64))
    total = 5 * footprint.num_addresses
    assert memometer.snooped_accesses == total
    assert memometer.accepted_accesses == 0
    assert not memometer.active_counts().any()
    counters = _memometer_counters(registry)
    assert counters["memometer.filtered_accesses"]["value"] == total
    assert counters["memometer.bursts"]["value"] == 1

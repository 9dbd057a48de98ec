"""Observability overhead smoke benchmark (``make bench-smoke``).

The zero-overhead claim of :mod:`repro.obs` is structural — with
observability disabled, every instrument is a shared no-op object, so
the hot snoop datapath pays a handful of bound-method calls per
*burst* (never per access).  This benchmark pins the claim down with a
number: driving one million snooped accesses through
``Memometer.observe_burst`` must cost at most 5% more than a
hand-inlined copy of the same datapath with every instrument call
deleted.  The simulator's cell-space path,
``Memometer.observe_footprint``, is held to the same budget over a
stream of kernel-service invocations.

Run directly (no session-scoped training involved)::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -q
"""

from __future__ import annotations

import time

import numpy as np

from repro import kernels, obs
from repro.hw.memometer import COUNTER_MAX, ControlRegisters, Memometer
from repro.sim.engine import Simulator
from repro.sim.kernel.kernel import Kernel
from repro.sim.kernel.layout import KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE
from repro.sim.trace import AccessBurst

BURSTS = 1_000
ACCESSES_PER_BURST = 1_000  # 1e6 accesses total
REPEATS = 9
MAX_OVERHEAD = 0.05

REGISTERS = ControlRegisters(
    base_address=0xC000_0000,
    region_size=0x20_0000,  # 2 MB kernel .text
    granularity=2048,
    interval_ns=10_000_000,
)


#: The paper's monitored region: the kernel text the footprints live in.
KERNEL_REGISTERS = ControlRegisters(
    base_address=KERNEL_TEXT_BASE,
    region_size=KERNEL_TEXT_SIZE,
    granularity=2048,
    interval_ns=10_000_000,
)
INVOCATIONS = 20_000


def _make_stream(seed: int = 0) -> list[AccessBurst]:
    rng = np.random.default_rng(seed)
    base, size = REGISTERS.base_address, REGISTERS.region_size
    stream = []
    for i in range(BURSTS):
        addresses = rng.integers(
            base - size // 8, base + size + size // 8, size=ACCESSES_PER_BURST
        ).astype(np.int64)
        weights = np.ones(ACCESSES_PER_BURST, dtype=np.int64)
        stream.append(AccessBurst(time_ns=i, addresses=addresses, weights=weights))
    return stream


class RawMemometer:
    """``Memometer``'s batched datapaths with every instrument call deleted.

    Kept in step with the real datapaths (same whole-burst miss check,
    same ``kernels.count_cells`` dispatch, same precompiled footprint
    counts, same saturating clamp) so the comparison isolates exactly
    the cost of the no-op instrument calls.
    """

    def __init__(self, registers: ControlRegisters):
        self.registers = registers
        self.spec = registers.spec
        self._buffers = [
            np.zeros(self.spec.num_cells, dtype=np.uint64) for _ in range(2)
        ]
        self._active = 0
        self.snooped_accesses = 0
        self.accepted_accesses = 0

    def observe_burst(self, burst: AccessBurst) -> None:
        total = int(burst.weights.sum())
        self.snooped_accesses += total
        addresses = burst.addresses
        base = self.registers.base_address
        if (
            not addresses.size
            or addresses.max() < base
            or addresses.min() >= base + self.registers.region_size
        ):
            return
        increments, accepted = kernels.count_cells(
            addresses,
            burst.weights,
            base_address=base,
            region_size=self.registers.region_size,
            shift=self.spec.shift,
            num_cells=self.spec.num_cells,
        )
        if accepted == 0:
            return
        buf = self._buffers[self._active]
        summed = buf + increments.astype(np.uint64)
        np.minimum(summed, COUNTER_MAX, out=buf, casting="unsafe")
        self.accepted_accesses += accepted

    def observe_footprint(self, footprint, iters) -> None:
        binned = footprint.cell_counts(
            self.registers.base_address, self.registers.region_size, self.spec.shift
        )
        totals = iters @ binned.weights
        accepted = int(totals[1])
        self.snooped_accesses += int(totals[0])
        self.accepted_accesses += accepted
        if accepted:
            buf = self._buffers[self._active]
            cells = binned.cells
            summed = buf[cells] + totals[2:].astype(np.uint64)
            buf[cells] = np.minimum(summed, COUNTER_MAX, out=summed)


def _make_invocations(seed: int = 0) -> list:
    """``(footprint, iters)`` pairs drawn from the default kernel's services."""
    rng = np.random.default_rng(seed)
    kernel = Kernel(Simulator(), rng)
    footprints = [kernel.services.get(n).footprint for n in kernel.services.names()]
    picks = rng.integers(0, len(footprints), size=INVOCATIONS)
    return [
        (footprints[i], footprints[i].sample_iterations(rng)) for i in picks
    ]


def _time_once(meter, stream) -> int:
    start = time.perf_counter_ns()
    for burst in stream:
        meter.observe_burst(burst)
    return time.perf_counter_ns() - start


def _time_footprints_once(meter, invocations) -> int:
    start = time.perf_counter_ns()
    for footprint, iters in invocations:
        meter.observe_footprint(footprint, iters)
    return time.perf_counter_ns() - start


def _paired_rounds(stream):
    """Per-round (raw, instrumented) wall times, measured back-to-back.

    Timing both datapaths inside the same round means they share one
    CPU-frequency/noise window; the per-round *ratio* is therefore far
    more stable than either absolute time on a busy machine.
    """
    rounds = []
    for _ in range(REPEATS):
        baseline = _time_once(RawMemometer(REGISTERS), stream)
        instrumented = _time_once(Memometer(REGISTERS), stream)
        rounds.append((baseline, instrumented))
    return rounds


def _paired_footprint_rounds(invocations):
    rounds = []
    for _ in range(REPEATS):
        baseline = _time_footprints_once(RawMemometer(KERNEL_REGISTERS), invocations)
        instrumented = _time_footprints_once(Memometer(KERNEL_REGISTERS), invocations)
        rounds.append((baseline, instrumented))
    return rounds


def _median_overhead(rounds) -> tuple[float, list]:
    ratios = sorted(instr / base for base, instr in rounds)
    return ratios[len(ratios) // 2] - 1.0, ratios


def test_obs_overhead(report):
    obs.disable()  # the claim under test is the *disabled* path
    stream = _make_stream()

    _paired_rounds(stream[:50])  # warm-up both sides
    rounds = _paired_rounds(stream)

    overhead, ratios = _median_overhead(rounds)
    baseline_ns = min(base for base, _ in rounds)
    accesses = BURSTS * ACCESSES_PER_BURST
    report.add(
        "Disabled-observability overhead on Memometer.observe_burst",
        f"(median of {REPEATS} paired rounds, {accesses:.0e} accesses each)",
        "",
    )
    report.table(
        ["quantity", "value"],
        [
            ["raw datapath (best)", f"{baseline_ns / 1e6:.1f} ms"],
            ["median paired overhead", f"{overhead:+.2%}"],
            ["spread", f"{ratios[0] - 1.0:+.2%} .. {ratios[-1] - 1.0:+.2%}"],
            ["budget", f"{MAX_OVERHEAD:.0%}"],
        ],
    )
    assert overhead < MAX_OVERHEAD, (
        f"no-op instruments cost {overhead:.2%} on observe_burst "
        f"(budget {MAX_OVERHEAD:.0%})"
    )


def test_obs_overhead_footprint_path(report):
    obs.disable()
    invocations = _make_invocations()

    _paired_footprint_rounds(invocations[:500])  # warm-up (and bins) both sides
    rounds = _paired_footprint_rounds(invocations)

    overhead, ratios = _median_overhead(rounds)
    baseline_ns = min(base for base, _ in rounds)
    report.add(
        "Disabled-observability overhead on Memometer.observe_footprint",
        f"(median of {REPEATS} paired rounds, {INVOCATIONS} service invocations each)",
        "",
    )
    report.table(
        ["quantity", "value"],
        [
            ["raw datapath (best)", f"{baseline_ns / 1e6:.1f} ms"],
            ["per invocation", f"{baseline_ns / INVOCATIONS / 1e3:.2f} us"],
            ["median paired overhead", f"{overhead:+.2%}"],
            ["spread", f"{ratios[0] - 1.0:+.2%} .. {ratios[-1] - 1.0:+.2%}"],
            ["budget", f"{MAX_OVERHEAD:.0%}"],
        ],
    )
    assert overhead < MAX_OVERHEAD, (
        f"no-op instruments cost {overhead:.2%} on observe_footprint "
        f"(budget {MAX_OVERHEAD:.0%})"
    )


def test_raw_and_instrumented_agree_bit_for_bit():
    """The shadow datapath must stay in step with the real one."""
    obs.disable()
    stream = _make_stream(seed=7)[:100]
    raw, real = RawMemometer(REGISTERS), Memometer(REGISTERS)
    for burst in stream:
        raw.observe_burst(burst)
        real.observe_burst(burst)
    np.testing.assert_array_equal(raw._buffers[0], real.active_counts())
    assert raw.snooped_accesses == real.snooped_accesses
    assert raw.accepted_accesses == real.accepted_accesses


def test_raw_and_instrumented_footprint_paths_agree():
    obs.disable()
    raw, real = RawMemometer(KERNEL_REGISTERS), Memometer(KERNEL_REGISTERS)
    for footprint, iters in _make_invocations(seed=7)[:500]:
        raw.observe_footprint(footprint, iters)
        real.observe_footprint(footprint, iters)
    np.testing.assert_array_equal(raw._buffers[0], real.active_counts())
    assert raw.snooped_accesses == real.snooped_accesses
    assert raw.accepted_accesses == real.accepted_accesses

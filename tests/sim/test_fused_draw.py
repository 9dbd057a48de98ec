"""Differential suite: one ``standard_normal`` call per service invocation.

``Kernel.run_service`` and ``Kernel.invoke_syscall`` make one
``standard_normal`` call per invocation and split it into the latency
value and each footprint's draw.  The oracle draws the way the kernel
used to, one call per purpose: a service's footprint then its latency
(through ``rng.normal``); a syscall's latency, then a hijack wrapper's
footprint, then the handler's footprint.  The footprint draws handed to
the probes, the latencies returned, the bursts of the address path and
the generator state afterwards must all be identical, with no tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memometer import ControlRegisters, Memometer
from repro.sim.engine import Simulator
from repro.sim.kernel.footprint import FootprintStep
from repro.sim.kernel.kernel import Kernel
from repro.sim.kernel.layout import MODULE_SPACE_BASE, default_layout
from repro.sim.kernel.syscalls import DEFAULT_SYSCALLS, KernelService
from repro.sim.trace import TraceRecorder
from tests.hw.test_deferred_flush import _iterations
from tests.sim.test_rng_spellings import _reference_latency, _state

SERVICES = tuple(Kernel(Simulator(), None).services.names())


class DrawRecorder:
    """A cell-space probe that keeps every draw it is handed: the view
    itself and a copy taken on arrival."""

    def __init__(self):
        self.draws = []

    def observe_burst(self, burst):  # pragma: no cover - cell path only
        raise AssertionError("a cell-space probe got an address burst")

    def defer_footprint(self, footprint, z, jitter_scale=1.0):
        self.draws.append((footprint, z, z.copy(), jitter_scale))


def _wrapper(kernel, steps: int) -> KernelService:
    """A module-space hijack wrapper with ``steps`` footprint steps."""
    return KernelService(
        name="test.wrapper",
        footprint=kernel.compiler.compile(
            [
                FootprintStep(
                    function=None,
                    address=MODULE_SPACE_BASE + 0x1000 * i,
                    size=0x200,
                    iterations=2.0,
                )
                for i in range(steps)
            ]
        ),
        latency_ns=1_000,
    )


def _reference(kernel, rng, op, name):
    """The old draw order from ``rng``: ``[(footprint, z), ...]`` and the
    latency.  Reads ``kernel``'s services and table, draws nothing from
    its generator."""
    if op == "service":
        service = kernel.services.get(name)
        z = rng.standard_normal(service.footprint.num_steps)
        return [(service.footprint, z)], _reference_latency(service, rng)
    service, hijack = kernel.syscall_table.resolve(name)
    latency = _reference_latency(service, rng)
    emitted = []
    if hijack is not None:
        wrapper = hijack.wrapper.footprint
        emitted.append((wrapper, rng.standard_normal(wrapper.num_steps)))
        latency += hijack.extra_latency_ns
    handler = service.footprint
    emitted.append((handler, rng.standard_normal(handler.num_steps)))
    return emitted, latency


def _run(kernel, op, name):
    if op == "service":
        return kernel.run_service(name)
    return kernel.invoke_syscall(name)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("service"), st.sampled_from(SERVICES)),
        st.tuples(st.just("syscall"), st.sampled_from(DEFAULT_SYSCALLS)),
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def cases(draw):
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "ops": draw(operations),
        "hijacked": draw(st.sets(st.sampled_from(DEFAULT_SYSCALLS), max_size=4)),
        "wrapper_steps": draw(st.integers(1, 5)),
        "extra_latency_ns": draw(st.integers(0, 50_000)),
        "jitter_scale": draw(st.sampled_from([0.0, 0.5, 1.0])),
    }


def _kernel(case) -> Kernel:
    kernel = Kernel(
        Simulator(),
        np.random.default_rng(case["seed"]),
        layout=default_layout(),
        jitter_scale=case["jitter_scale"],
    )
    wrapper = _wrapper(kernel, case["wrapper_steps"])
    for name in sorted(case["hijacked"]):
        kernel.syscall_table.hijack(name, wrapper, case["extra_latency_ns"])
    return kernel


@given(case=cases())
@settings(max_examples=60, deadline=None)
def test_cell_path_draws_equal_separate_draws(case):
    ours = _kernel(case)
    recorder = DrawRecorder()
    ours.attach_probe(recorder)
    reference = np.random.default_rng(case["seed"])
    expected = []
    for op, name in case["ops"]:
        emitted, latency = _reference(ours, reference, op, name)
        assert _run(ours, op, name) == latency
        expected.extend(emitted)
    assert len(recorder.draws) == len(expected)
    for (footprint, z, _, scale), (want_footprint, want_z) in zip(
        recorder.draws, expected
    ):
        assert footprint is want_footprint
        assert scale == case["jitter_scale"]
        np.testing.assert_array_equal(z, want_z)
    assert _state(ours.rng) == _state(reference)


@given(case=cases())
@settings(max_examples=40, deadline=None)
def test_address_path_bursts_equal_separate_draws(case):
    ours = _kernel(case)
    recorder = TraceRecorder()
    ours.attach_probe(recorder)
    reference = np.random.default_rng(case["seed"])
    expected = []
    for op, name in case["ops"]:
        emitted, latency = _reference(ours, reference, op, name)
        assert _run(ours, op, name) == latency
        expected.extend(emitted)
    assert len(recorder.bursts) == len(expected)
    for burst, (footprint, z) in zip(recorder.bursts, expected):
        iters = _iterations(footprint, z, case["jitter_scale"])
        np.testing.assert_array_equal(burst.addresses, footprint.addresses)
        np.testing.assert_array_equal(
            burst.weights, np.repeat(iters, footprint.step_lengths)
        )
    assert _state(ours.rng) == _state(reference)


@given(case=cases())
@settings(max_examples=25, deadline=None)
def test_shared_draw_views_are_never_written(case):
    """The views reach every sink, the Memometer's flush and the address
    path's ``sample``; none of them writes."""
    ours = _kernel(case)
    recorder = DrawRecorder()
    memometer = Memometer(
        ControlRegisters(
            base_address=MODULE_SPACE_BASE,
            region_size=0x10_0000,
            granularity=4096,
            interval_ns=10_000_000,
        )
    )
    ours.attach_probe(memometer)
    ours.attach_probe(recorder)
    for op, name in case["ops"]:
        _run(ours, op, name)
    memometer.interval_boundary(0)
    # The address path's consumer reads the same kind of view.
    for footprint, view, _, scale in recorder.draws:
        footprint.sample(view, scale)
    for _, view, copy, _ in recorder.draws:
        np.testing.assert_array_equal(view, copy)


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_one_array_draw_equals_consecutive_draws(seed, sizes):
    """The numpy property the fused draw rests on: consecutive
    ``standard_normal`` calls (scalar for size 0 here) give the values
    and the generator state of one call over the total size."""
    ours = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    pieces = [
        np.array([reference.standard_normal()])
        if size == 0
        else reference.standard_normal(size)
        for size in sizes
    ]
    total = sum(max(size, 1) for size in sizes)
    np.testing.assert_array_equal(ours.standard_normal(total), np.concatenate(pieces))
    assert _state(ours) == _state(reference)

"""Differential suite: the simulator's random draws vs ``rng.normal``.

``CompiledFootprint.sample_iterations`` and ``KernelService.sample_latency``
take ``rng.standard_normal`` values and do numpy's ``loc + scale * z``
arithmetic themselves.  Every digest depends on that being the very draw
``rng.normal`` made, so each spelling is checked against a reference that
calls ``rng.normal`` directly: identical values and an identical
``bit_generator`` state afterwards, with no tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel.footprint import CompiledFootprint
from repro.sim.kernel.syscalls import KernelService

JITTER_SCALES = [0.0, 0.3, 1.0, 2.5]


def _reference_iterations(footprint, rng, jitter_scale):
    """``sample_iterations`` as first written, through ``rng.normal``."""
    noise = rng.normal(loc=1.0, scale=footprint.jitters * jitter_scale)
    return np.maximum(1, np.rint(footprint.mean_iterations * noise)).astype(np.int64)


def _reference_latency(service, rng):
    """``sample_latency`` as first written, through ``rng.normal``."""
    jittered = rng.normal(
        service.latency_ns, service.latency_ns * service.latency_jitter
    )
    return max(int(service.latency_ns * 0.1), int(jittered))


def _footprint(means, jitters) -> CompiledFootprint:
    steps = len(means)
    return CompiledFootprint(
        addresses=np.arange(steps, dtype=np.int64) * 16,
        step_lengths=np.ones(steps, dtype=np.int64),
        mean_iterations=np.asarray(means, dtype=np.float64),
        jitters=np.asarray(jitters, dtype=np.float64),
    )


def _state(rng) -> dict:
    return rng.bit_generator.state


jitters = st.one_of(st.just(0.0), st.floats(0.0, 0.6), st.floats(0.0, 1e-9))


#: Means and latencies near 2**53 and above leave no fraction for
#: ``rint``/``int`` to round away, so a one-ulp change in the float
#: arithmetic (a reordered product, a fused scale) changes the result.
means = st.one_of(st.floats(0.5, 400.0), st.floats(1e15, 1e17))
latencies = st.one_of(
    st.integers(1, 10_000), st.integers(10_000, 5_000_000), st.integers(2**52, 2**60)
)


@st.composite
def footprint_cases(draw):
    steps = draw(st.integers(1, 24))
    return {
        "means": draw(st.lists(means, min_size=steps, max_size=steps)),
        "jitters": draw(st.lists(jitters, min_size=steps, max_size=steps)),
        "jitter_scale": draw(st.sampled_from(JITTER_SCALES)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "draws": draw(st.integers(1, 6)),
    }


@given(case=footprint_cases())
@settings(max_examples=200, deadline=None)
def test_sample_iterations_is_rng_normal_draw(case):
    footprint = _footprint(case["means"], case["jitters"])
    ours = np.random.default_rng(case["seed"])
    reference = np.random.default_rng(case["seed"])
    for _ in range(case["draws"]):
        got = footprint.sample_iterations(
            ours.standard_normal(footprint.num_steps), case["jitter_scale"]
        )
        want = _reference_iterations(footprint, reference, case["jitter_scale"])
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert _state(ours) == _state(reference)


@given(
    latency_ns=latencies,
    latency_jitter=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_sample_latency_is_rng_normal_draw(latency_ns, latency_jitter, seed, draws):
    service = KernelService(
        name="svc",
        footprint=_footprint([1.0], [0.0]),
        latency_ns=latency_ns,
        latency_jitter=latency_jitter,
    )
    ours = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for _ in range(draws):
        got = service.sample_latency(ours.standard_normal())
        assert got == _reference_latency(service, reference)
    assert _state(ours) == _state(reference)


def test_default_services_draw_like_rng_normal():
    """The shipped service set, interleaved as the kernel interleaves it."""
    from repro.sim.kernel.layout import default_layout
    from repro.sim.kernel.syscalls import build_default_services

    registry, _ = build_default_services(default_layout())
    services = [registry.get(name) for name in registry.names()]
    ours = np.random.default_rng(2015)
    reference = np.random.default_rng(2015)
    for scale in JITTER_SCALES:
        for service in services:
            np.testing.assert_array_equal(
                service.footprint.sample_iterations(
                    ours.standard_normal(service.footprint.num_steps), scale
                ),
                _reference_iterations(service.footprint, reference, scale),
            )
            assert service.sample_latency(ours.standard_normal()) == _reference_latency(
                service, reference
            )
    assert _state(ours) == _state(reference)


class TestNegativeScalesRejectedAtConstruction:
    """``rng.normal`` rejected a negative scale at draw time;
    ``standard_normal`` has no scale, so the check moved to construction."""

    def test_negative_step_jitter(self):
        with pytest.raises(ValueError, match="jitters must be non-negative"):
            _footprint([1.0, 2.0], [0.1, -0.1])

    def test_negative_latency_jitter(self):
        with pytest.raises(ValueError, match="latency_jitter must be non-negative"):
            KernelService(
                name="svc",
                footprint=_footprint([1.0], [0.0]),
                latency_ns=1_000,
                latency_jitter=-0.05,
            )

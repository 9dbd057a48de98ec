"""Tests for the Memometer hardware model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memometer import (
    COUNTER_MAX,
    MAX_CELLS,
    ControlRegisters,
    Memometer,
    MemometerConfigError,
)
from repro.sim.trace import AccessBurst


def make_registers(base=0x1000, size=0x800, granularity=0x100, interval=10_000_000):
    return ControlRegisters(
        base_address=base,
        region_size=size,
        granularity=granularity,
        interval_ns=interval,
    )


def make_burst(addresses, weights=None, time_ns=0):
    addresses = np.asarray(addresses, dtype=np.int64)
    if weights is None:
        weights = np.ones_like(addresses)
    return AccessBurst(
        time_ns=time_ns,
        addresses=addresses,
        weights=np.asarray(weights, dtype=np.int64),
    )


class TestControlRegisters:
    def test_paper_configuration_fits(self):
        registers = ControlRegisters(
            base_address=0xC0008000,
            region_size=3_013_284,
            granularity=2048,
            interval_ns=10_000_000,
        )
        assert registers.spec.num_cells == 1472
        assert registers.spec.num_cells <= MAX_CELLS

    def test_too_many_cells_rejected(self):
        # The paper's region at 1 KB would need 2,943 cells > 2,048.
        with pytest.raises(MemometerConfigError, match="exceed"):
            ControlRegisters(
                base_address=0xC0008000,
                region_size=3_013_284,
                granularity=1024,
                interval_ns=10_000_000,
            )

    def test_max_cells_is_8kb_of_counters(self):
        assert MAX_CELLS == 2048  # 8 KB / 4 B

    def test_bad_interval_rejected(self):
        with pytest.raises(MemometerConfigError, match="interval"):
            make_registers(interval=0)

    def test_bad_granularity_propagates(self):
        with pytest.raises(ValueError):
            make_registers(granularity=1000)


class TestScalarDatapath:
    def test_in_region_increment(self):
        memometer = Memometer(make_registers())
        assert memometer.observe(0x1000)
        assert memometer.active_counts()[0] == 1

    def test_out_of_region_filtered(self):
        memometer = Memometer(make_registers())
        assert not memometer.observe(0x0FFF)
        assert not memometer.observe(0x1800)
        assert memometer.active_counts().sum() == 0
        assert memometer.accepted_accesses == 0
        assert memometer.snooped_accesses == 2

    def test_shift_indexing(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000 + 0x100)  # cell 1
        memometer.observe(0x1000 + 0x2FF)  # cell 2
        counts = memometer.active_counts()
        assert counts[1] == 1
        assert counts[2] == 1

    def test_saturation_at_counter_max(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000, weight=COUNTER_MAX)
        memometer.observe(0x1000, weight=5)
        assert memometer.active_counts()[0] == COUNTER_MAX


class TestVectorDatapath:
    def test_burst_filtering_and_counting(self):
        memometer = Memometer(make_registers())
        burst = make_burst([0x1000, 0x1100, 0x0F00, 0x17FF], [1, 2, 100, 3])
        memometer.observe_burst(burst)
        counts = memometer.active_counts()
        assert counts[0] == 1
        assert counts[1] == 2
        assert counts[7] == 3
        assert memometer.accepted_accesses == 6
        assert memometer.snooped_accesses == 106

    def test_empty_burst(self):
        memometer = Memometer(make_registers())
        memometer.observe_burst(make_burst([]))
        assert memometer.active_counts().sum() == 0

    def test_burst_saturation(self):
        memometer = Memometer(make_registers())
        memometer.observe_burst(make_burst([0x1000], [COUNTER_MAX]))
        memometer.observe_burst(make_burst([0x1000], [COUNTER_MAX]))
        assert memometer.active_counts()[0] == COUNTER_MAX

    @given(
        offsets=st.lists(
            st.tuples(
                st.integers(min_value=-0x400, max_value=0xC00),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_vector_path_matches_scalar_path(self, offsets):
        """The fast path must be bit-identical to the hardware formula."""
        scalar = Memometer(make_registers())
        vector = Memometer(make_registers())
        addresses = np.array([0x1000 + off for off, _ in offsets], dtype=np.int64)
        weights = np.array([w for _, w in offsets], dtype=np.int64)
        if len(offsets):
            vector.observe_burst(make_burst(addresses, weights))
        for address, weight in zip(addresses, weights):
            scalar.observe(int(address), weight=int(weight))
        np.testing.assert_array_equal(scalar.active_counts(), vector.active_counts())
        assert scalar.accepted_accesses == vector.accepted_accesses


class TestWholeBurstMiss:
    """A burst wholly outside the region never reaches the cell kernel."""

    @pytest.fixture()
    def no_count_cells(self, monkeypatch):
        from repro import kernels

        def forbidden(*args, **kwargs):
            raise AssertionError("count_cells dispatched for a whole-burst miss")

        monkeypatch.setattr(kernels, "count_cells", forbidden)

    @pytest.mark.parametrize(
        "addresses",
        [[0x0, 0x0FFF], [0x1800, 0xBF000000], [0x0FFF]],
        ids=["below", "above", "last-byte-below"],
    )
    def test_miss_counted_as_filtered(self, no_count_cells, addresses):
        from repro import obs

        with obs.observed() as (registry, _):
            memometer = Memometer(make_registers())
            memometer.observe_burst(make_burst(addresses, [3] * len(addresses)))
            total = 3 * len(addresses)
            assert memometer.snooped_accesses == total
            assert memometer.accepted_accesses == 0
            assert memometer.active_counts().sum() == 0
            assert registry.counter("memometer.snooped_accesses").value == total
            assert registry.counter("memometer.filtered_accesses").value == total
            assert registry.counter("memometer.accepted_accesses").value == 0
            assert registry.counter("memometer.bursts").value == 1

    def test_straddling_burst_still_counted(self):
        memometer = Memometer(make_registers())
        memometer.observe_burst(make_burst([0x0FFF, 0x1800, 0x17FF], [1, 1, 4]))
        assert memometer.accepted_accesses == 4
        assert memometer.active_counts()[7] == 4


class TestRegionBoundaries:
    """Regression guard on the Section 3.1 filter arithmetic.

    Audited for an off-by-one at the region's far edge: accept iff
    ``0 <= addr - base < S``, so ``base + S - 1`` is the last counted
    byte and ``base + S`` the first dropped one — including when S is
    not a multiple of the granularity and the last cell is short.
    """

    def test_last_byte_lands_in_last_cell(self):
        memometer = Memometer(make_registers())
        assert memometer.observe(0x1000 + 0x800 - 1)
        assert memometer.active_counts()[7] == 1

    def test_first_byte_past_region_dropped(self):
        memometer = Memometer(make_registers())
        assert not memometer.observe(0x1000 + 0x800)
        assert memometer.active_counts().sum() == 0

    def test_partial_last_cell(self):
        # 0x7F0 bytes at 0x100 granularity: 7 full cells + a 240-byte
        # eighth cell.  Its last byte must index cell 7, not fall off
        # the counter array or get filtered.
        registers = make_registers(size=0x7F0)
        assert registers.spec.num_cells == 8
        memometer = Memometer(registers)
        assert memometer.observe(0x1000 + 0x7F0 - 1)
        assert not memometer.observe(0x1000 + 0x7F0)
        counts = memometer.active_counts()
        assert counts[7] == 1 and counts.sum() == 1

    def test_partial_last_cell_vector_path(self):
        registers = make_registers(size=0x7F0)
        memometer = Memometer(registers)
        memometer.observe_burst(
            make_burst([0x1000 + 0x7EF, 0x1000 + 0x7F0, 0x1000 + 0x7FF])
        )
        counts = memometer.active_counts()
        assert counts[7] == 1 and counts.sum() == 1
        assert memometer.accepted_accesses == 1


class TestDoubleBuffering:
    def test_boundary_returns_completed_map(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000)
        heat_map = memometer.interval_boundary(time_ns=10_000_000)
        assert heat_map.counts[0] == 1
        assert heat_map.interval_index == 0

    def test_active_buffer_alternates(self):
        memometer = Memometer(make_registers())
        assert memometer.active_buffer_index == 0
        memometer.interval_boundary(10_000_000)
        assert memometer.active_buffer_index == 1
        memometer.interval_boundary(20_000_000)
        assert memometer.active_buffer_index == 0

    def test_counts_do_not_leak_across_intervals(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000, weight=7)
        first = memometer.interval_boundary(10_000_000)
        memometer.observe(0x1100, weight=3)
        second = memometer.interval_boundary(20_000_000)
        assert first.counts[0] == 7 and first.counts[1] == 0
        assert second.counts[0] == 0 and second.counts[1] == 3
        # Third interval reuses buffer 0, which must have been reset.
        third = memometer.interval_boundary(30_000_000)
        assert third.total_accesses == 0

    def test_monitoring_continues_during_analysis(self):
        """Accesses right after the swap land in the new active buffer."""
        memometer = Memometer(make_registers())
        completed = memometer.interval_boundary(10_000_000)
        memometer.observe(0x1000)
        assert completed.counts[0] == 0
        assert memometer.active_counts()[0] == 1

    def test_interval_metadata(self):
        memometer = Memometer(make_registers())
        memometer.interval_boundary(10_000_000)
        second = memometer.interval_boundary(20_000_000)
        assert second.interval_index == 1
        assert second.start_time_ns == 10_000_000
        assert memometer.intervals_completed == 2

    def test_on_heatmap_callback(self):
        received = []
        memometer = Memometer(make_registers(), on_heatmap=received.append)
        memometer.observe(0x1000)
        memometer.interval_boundary(10_000_000)
        assert len(received) == 1
        assert received[0].counts[0] == 1


class TestStatistics:
    def test_drop_rate(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000)
        memometer.observe(0x0)
        assert memometer.drop_rate == pytest.approx(0.5)

    def test_drop_rate_empty(self):
        assert Memometer(make_registers()).drop_rate == 0.0


class TestSaturationMetrics:
    """Saturation is a silent data-loss mode — it must be observable.

    Regression guard: both datapaths clamp at COUNTER_MAX *and* bump
    the ``memometer.saturated`` counter once per saturated update, so
    an experiment that quietly clips its heat maps shows up in the
    metrics snapshot.
    """

    def test_scalar_saturation_increments_counter(self):
        from repro import obs

        with obs.observed() as (registry, _):
            memometer = Memometer(make_registers())
            memometer.observe(0x1000, weight=COUNTER_MAX)
            assert registry.counter("memometer.saturated").value == 0
            memometer.observe(0x1000)  # would exceed -> clamps
            memometer.observe(0x1000)  # clamps again
            assert memometer.active_counts()[0] == COUNTER_MAX
            assert registry.counter("memometer.saturated").value == 2

    def test_burst_saturation_counts_each_saturated_cell(self):
        from repro import obs

        with obs.observed() as (registry, _):
            memometer = Memometer(make_registers())
            # Two cells at the limit, one far below it.
            memometer.observe_burst(
                make_burst([0x1000, 0x1100], [COUNTER_MAX, COUNTER_MAX])
            )
            memometer.observe_burst(
                make_burst([0x1000, 0x1100, 0x1200], [5, 1, 1])
            )
            counts = memometer.active_counts()
            assert counts[0] == COUNTER_MAX
            assert counts[1] == COUNTER_MAX
            assert counts[2] == 1
            assert registry.counter("memometer.saturated").value == 2

    def test_clamp_preserved_with_observability_disabled(self):
        from repro import obs

        obs.disable()
        memometer = Memometer(make_registers())
        memometer.observe(0x1000, weight=COUNTER_MAX)
        memometer.observe(0x1000, weight=COUNTER_MAX)
        memometer.observe_burst(make_burst([0x1000], [COUNTER_MAX]))
        assert memometer.active_counts()[0] == COUNTER_MAX

    def test_access_accounting_counters(self):
        from repro import obs

        with obs.observed() as (registry, _):
            memometer = Memometer(make_registers())
            memometer.observe(0x1000)  # accepted
            memometer.observe(0x0)  # filtered
            memometer.observe_burst(make_burst([0x1000, 0x0, 0x1200]))
            assert registry.counter("memometer.snooped_accesses").value == 5
            assert registry.counter("memometer.accepted_accesses").value == 3
            assert registry.counter("memometer.filtered_accesses").value == 2


class TestFilledBound:
    """``_filled[i]`` bounds every cell of buffer *i* from above.

    It is what lets ``observe_footprint`` skip the saturating clamp, so
    every datapath must raise it and only a reset may lower it.
    """

    def test_every_datapath_raises_the_active_bound(self):
        from repro.sim.kernel.footprint import CompiledFootprint

        memometer = Memometer(make_registers())
        memometer.observe(0x1000, weight=3)
        memometer.observe(0x0, weight=100)  # filtered: not accepted
        memometer.observe_burst(make_burst([0x1000, 0x1100, 0x0], [2, 5, 9]))
        footprint = CompiledFootprint(
            addresses=[0x1000, 0x1200, 0x0],
            step_lengths=[2, 1],
            mean_iterations=[1.0, 1.0],
            jitters=[0.0, 0.0],
        )
        memometer.observe_footprint(footprint, np.array([4, 7], dtype=np.int64))
        assert memometer._filled == [3 + 7 + 4 * 2, 0]
        assert memometer._filled[0] == memometer.accepted_accesses
        assert memometer.active_counts().max() <= memometer._filled[0]

    def test_swap_resets_only_the_completed_buffer(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000, weight=11)
        memometer.interval_boundary(10_000_000)  # buffer 0 completed
        assert memometer._filled == [0, 0]
        memometer.observe(0x1100, weight=5)
        assert memometer._filled == [0, 5]
        memometer.interval_boundary(20_000_000)  # buffer 1 completed
        memometer.observe(0x1200, weight=2)
        assert memometer._filled == [2, 0]
        # Buffer 0 fills while buffer 1 (already cleared) waits.
        memometer.observe(0x1200, weight=3)
        assert memometer._filled == [5, 0]

    def test_reconfigure_zeroes_both_bounds(self):
        memometer = Memometer(make_registers())
        memometer.observe(0x1000, weight=4)
        memometer.interval_boundary(10_000_000)
        memometer.observe(0x1000, weight=6)
        assert memometer._filled == [0, 6]
        memometer.reconfigure(make_registers(granularity=0x200))
        assert memometer._filled == [0, 0]

    def test_reconfigure_drops_cached_cell_counts(self):
        """After a granularity change the cell path counts like a fresh
        Memometer: no CellCounts binned for the old spec survive."""
        from repro.sim.kernel.kernel import Kernel
        from repro.sim.engine import Simulator
        from repro.sim.kernel.layout import KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE

        def kernel_registers(granularity):
            return ControlRegisters(
                KERNEL_TEXT_BASE, KERNEL_TEXT_SIZE, granularity, 10_000_000
            )

        rng = np.random.default_rng(14)
        kernel = Kernel(Simulator(), rng)
        footprints = [
            kernel.services.get(name).footprint for name in kernel.services.names()
        ]
        invocations = [
            (fp, fp.sample_iterations(rng.standard_normal(fp.num_steps)))
            for fp in footprints
            for _ in range(3)
        ]
        reused = Memometer(kernel_registers(2048))
        for footprint, iters in invocations:
            reused.observe_footprint(footprint, iters)
        reused.reconfigure(kernel_registers(8192))
        fresh = Memometer(kernel_registers(8192))
        for footprint, iters in invocations:
            reused.observe_footprint(footprint, iters)
            fresh.observe_footprint(footprint, iters)
        assert reused.active_counts().shape == fresh.active_counts().shape
        np.testing.assert_array_equal(reused.active_counts(), fresh.active_counts())
        assert reused.accepted_accesses == fresh.accepted_accesses
        assert reused._filled == fresh._filled

"""Tests for the MemoryHeatMap data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mhm import MemoryHeatMap
from repro.core.spec import HeatMapSpec


@pytest.fixture()
def mhm(small_spec):
    return MemoryHeatMap(small_spec)


class TestConstruction:
    def test_starts_empty(self, mhm, small_spec):
        assert mhm.total_accesses == 0
        assert mhm.num_cells == small_spec.num_cells
        assert mhm.touched_cells == 0

    def test_initial_counts_copied(self, small_spec):
        counts = np.ones(small_spec.num_cells, dtype=np.int64)
        heat_map = MemoryHeatMap(small_spec, counts)
        counts[0] = 999
        assert heat_map.counts[0] == 1

    def test_rejects_wrong_length(self, small_spec):
        with pytest.raises(ValueError, match="shape"):
            MemoryHeatMap(small_spec, np.zeros(3))

    def test_rejects_negative_counts(self, small_spec):
        counts = np.zeros(small_spec.num_cells, dtype=np.int64)
        counts[0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            MemoryHeatMap(small_spec, counts)


class TestRecording:
    def test_record_in_region(self, mhm, small_spec):
        assert mhm.record(small_spec.base_address)
        assert mhm.counts[0] == 1
        assert mhm.total_accesses == 1

    def test_record_out_of_region_dropped(self, mhm, small_spec):
        assert not mhm.record(small_spec.base_address - 4)
        assert not mhm.record(small_spec.end_address)
        assert mhm.total_accesses == 0

    def test_record_with_count(self, mhm, small_spec):
        mhm.record(small_spec.base_address, count=7)
        assert mhm.counts[0] == 7

    def test_record_negative_count_rejected(self, mhm, small_spec):
        with pytest.raises(ValueError):
            mhm.record(small_spec.base_address, count=-1)

    def test_record_many_mixed(self, mhm, small_spec):
        addresses = np.array(
            [
                small_spec.base_address,  # in, cell 0
                small_spec.base_address + small_spec.granularity,  # in, cell 1
                small_spec.base_address - 1,  # out
                small_spec.end_address - 1,  # in, last cell
            ]
        )
        accepted = mhm.record_many(addresses)
        assert accepted == 3
        assert mhm.counts[0] == 1
        assert mhm.counts[1] == 1
        assert mhm.counts[-1] == 1

    def test_record_many_with_weights(self, mhm, small_spec):
        addresses = np.array([small_spec.base_address, small_spec.base_address - 1])
        weights = np.array([5, 100])
        assert mhm.record_many(addresses, weights) == 5
        assert mhm.counts[0] == 5

    def test_record_many_weight_shape_mismatch(self, mhm, small_spec):
        with pytest.raises(ValueError, match="shape"):
            mhm.record_many(
                np.array([small_spec.base_address]), np.array([1, 2])
            )

    def test_record_many_negative_weights(self, mhm, small_spec):
        with pytest.raises(ValueError, match="non-negative"):
            mhm.record_many(np.array([small_spec.base_address]), np.array([-1]))

    def test_record_many_matches_scalar_records(self, mhm, small_spec):
        """An unweighted burst straddling both region edges counts what
        one scalar ``record`` per address counts."""
        addresses = np.arange(
            small_spec.base_address - 0x100, small_spec.end_address + 0x100, 7
        )
        scalar = MemoryHeatMap(small_spec)
        expected = sum(scalar.record(int(a)) for a in addresses)
        assert mhm.record_many(addresses) == expected
        assert mhm == scalar

    def test_record_many_empty_burst(self, mhm, small_spec):
        empty = np.array([], dtype=np.int64)
        assert mhm.record_many(empty) == 0
        assert mhm.record_many(empty, np.array([], dtype=np.int64)) == 0
        assert mhm.total_accesses == 0

    def test_record_range_sweep(self, mhm, small_spec):
        # A linear sweep over one full cell: granularity/stride accesses.
        accepted = mhm.record_range(
            small_spec.base_address, small_spec.granularity, stride=4
        )
        assert accepted == small_spec.granularity // 4
        assert mhm.counts[0] == accepted

    def test_record_range_empty(self, mhm, small_spec):
        assert mhm.record_range(small_spec.base_address, 0) == 0

    def test_reset(self, mhm, small_spec):
        mhm.record(small_spec.base_address)
        mhm.reset()
        assert mhm.total_accesses == 0


class TestInspection:
    def test_hottest_cells(self, mhm, small_spec):
        mhm.record(small_spec.base_address, count=10)
        mhm.record(small_spec.base_address + small_spec.granularity, count=3)
        hottest = mhm.hottest_cells(2)
        assert hottest[0] == (0, 10)
        assert hottest[1] == (1, 3)

    def test_hottest_cells_k_zero(self, mhm):
        assert mhm.hottest_cells(0) == []

    def test_as_vector_is_copy(self, mhm):
        vector = mhm.as_vector()
        vector[0] = 42
        assert mhm.counts[0] == 0


class TestArithmetic:
    def test_addition(self, small_spec):
        a = MemoryHeatMap(small_spec)
        b = MemoryHeatMap(small_spec)
        a.record(small_spec.base_address)
        b.record(small_spec.base_address, count=2)
        total = a + b
        assert total.counts[0] == 3
        assert a.counts[0] == 1  # operands untouched

    def test_iadd(self, small_spec):
        a = MemoryHeatMap(small_spec)
        b = MemoryHeatMap(small_spec)
        b.record(small_spec.base_address)
        a += b
        assert a.counts[0] == 1

    def test_incompatible_specs_rejected(self, small_spec):
        other_spec = HeatMapSpec(0x9000, small_spec.region_size, small_spec.granularity)
        with pytest.raises(ValueError, match="different specs"):
            MemoryHeatMap(small_spec) + MemoryHeatMap(other_spec)

    def test_equality(self, small_spec):
        a = MemoryHeatMap(small_spec)
        b = MemoryHeatMap(small_spec)
        assert a == b
        a.record(small_spec.base_address)
        assert a != b

    def test_copy_preserves_metadata(self, small_spec):
        a = MemoryHeatMap(small_spec, interval_index=5, start_time_ns=123)
        c = a.copy()
        assert c.interval_index == 5
        assert c.start_time_ns == 123
        c.record(small_spec.base_address)
        assert a.total_accesses == 0


class TestSerialisation:
    def test_roundtrip(self, small_spec):
        a = MemoryHeatMap(small_spec, interval_index=3, start_time_ns=70)
        a.record(small_spec.base_address, count=9)
        b = MemoryHeatMap.from_dict(a.to_dict())
        assert a == b
        assert b.interval_index == 3

    def test_stack(self, small_spec):
        maps = [MemoryHeatMap(small_spec) for _ in range(3)]
        maps[1].record(small_spec.base_address)
        matrix = MemoryHeatMap.stack(maps)
        assert matrix.shape == (3, small_spec.num_cells)
        assert matrix[1, 0] == 1

    def test_stack_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MemoryHeatMap.stack([])

    def test_stack_mixed_specs_rejected(self, small_spec):
        other = HeatMapSpec(0x9000, 0x800, 0x100)
        with pytest.raises(ValueError, match="different specs"):
            MemoryHeatMap.stack([MemoryHeatMap(small_spec), MemoryHeatMap(other)])


class TestProperties:
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=-0x200, max_value=0xA00),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_record_many_equals_scalar_loop(self, data):
        """The vectorised path must agree with repeated scalar records."""
        spec = HeatMapSpec(0x1000, 0x800, 0x100)
        vector_map = MemoryHeatMap(spec)
        scalar_map = MemoryHeatMap(spec)
        addresses = np.array([spec.base_address + off for off, _ in data], dtype=np.int64)
        weights = np.array([w for _, w in data], dtype=np.int64)
        if len(data):
            vector_map.record_many(addresses, weights)
        for address, weight in zip(addresses, weights):
            if spec.contains(int(address)):
                scalar_map.record(int(address), count=int(weight))
        assert vector_map == scalar_map

    @given(count=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50)
    def test_total_matches_recorded(self, count):
        spec = HeatMapSpec(0, 0x100, 0x10)
        heat_map = MemoryHeatMap(spec)
        heat_map.record(0x50, count=count)
        assert heat_map.total_accesses == count

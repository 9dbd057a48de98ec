"""Tests for the heat-map region spec (the hardware address formula)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import HeatMapSpec


class TestValidation:
    def test_paper_parameters(self, paper_spec):
        # Figure 1: 3,013,284 bytes at 2 KB granularity -> 1,472 cells.
        assert paper_spec.num_cells == 1472
        assert paper_spec.shift == 11
        assert paper_spec.end_address == 0xC02E7AA4

    def test_rejects_non_power_of_two_granularity(self):
        with pytest.raises(ValueError, match="power of two"):
            HeatMapSpec(0x1000, 0x1000, granularity=1000)

    def test_rejects_zero_granularity(self):
        with pytest.raises(ValueError, match="power of two"):
            HeatMapSpec(0x1000, 0x1000, granularity=0)

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError, match="base_address"):
            HeatMapSpec(-1, 0x1000, granularity=0x100)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="region_size"):
            HeatMapSpec(0x1000, 0, granularity=0x100)

    def test_granularity_one_is_allowed(self):
        spec = HeatMapSpec(0, 16, granularity=1)
        assert spec.num_cells == 16
        assert spec.shift == 0

    def test_partial_final_cell(self):
        spec = HeatMapSpec(0, 1000, granularity=256)
        assert spec.num_cells == 4  # ceil(1000 / 256)
        start, end = spec.cell_range(3)
        assert start == 768
        assert end == 1000  # clipped to the region end


class TestCellArithmetic:
    def test_base_address_is_cell_zero(self, small_spec):
        assert small_spec.cell_index(small_spec.base_address) == 0

    def test_last_byte_is_last_cell(self, small_spec):
        assert (
            small_spec.cell_index(small_spec.end_address - 1)
            == small_spec.num_cells - 1
        )

    def test_cell_boundaries(self, small_spec):
        g = small_spec.granularity
        base = small_spec.base_address
        assert small_spec.cell_index(base + g - 1) == 0
        assert small_spec.cell_index(base + g) == 1

    def test_out_of_region_raises(self, small_spec):
        with pytest.raises(ValueError, match="outside region"):
            small_spec.cell_index(small_spec.base_address - 1)
        with pytest.raises(ValueError, match="outside region"):
            small_spec.cell_index(small_spec.end_address)

    def test_contains(self, small_spec):
        assert small_spec.contains(small_spec.base_address)
        assert small_spec.contains(small_spec.end_address - 1)
        assert not small_spec.contains(small_spec.base_address - 1)
        assert not small_spec.contains(small_spec.end_address)

    def test_cell_range_roundtrip(self, small_spec):
        for idx in range(small_spec.num_cells):
            start, end = small_spec.cell_range(idx)
            assert small_spec.cell_index(start) == idx
            assert small_spec.cell_index(end - 1) == idx

    def test_cell_range_bad_index(self, small_spec):
        with pytest.raises(IndexError):
            small_spec.cell_range(small_spec.num_cells)
        with pytest.raises(IndexError):
            small_spec.cell_start(-1)


class TestSerialisation:
    def test_roundtrip(self, paper_spec):
        assert HeatMapSpec.from_dict(paper_spec.to_dict()) == paper_spec

    def test_with_granularity(self, paper_spec):
        coarse = paper_spec.with_granularity(8192)
        assert coarse.num_cells == 368  # the Section 5.4 variant
        assert coarse.base_address == paper_spec.base_address
        assert coarse.region_size == paper_spec.region_size


@st.composite
def specs(draw):
    base = draw(st.integers(min_value=0, max_value=2**40))
    size = draw(st.integers(min_value=1, max_value=2**24))
    granularity = 1 << draw(st.integers(min_value=0, max_value=16))
    return HeatMapSpec(base, size, granularity)


class TestProperties:
    @given(spec=specs(), offset=st.integers(min_value=0, max_value=2**24 - 1))
    @settings(max_examples=200)
    def test_index_formula_matches_division(self, spec, offset):
        """idx = offset >> g must equal floor(offset / delta) (paper 3.1)."""
        if offset >= spec.region_size:
            return
        address = spec.base_address + offset
        assert spec.cell_index(address) == offset // spec.granularity

    @given(spec=specs(), offset=st.integers(min_value=0, max_value=2**24 - 1))
    @settings(max_examples=200)
    def test_index_always_in_range(self, spec, offset):
        if offset >= spec.region_size:
            return
        idx = spec.cell_index(spec.base_address + offset)
        assert 0 <= idx < spec.num_cells

    @given(spec=specs())
    @settings(max_examples=100, deadline=None)
    def test_cells_cover_region_exactly(self, spec):
        if spec.num_cells > 20_000:  # keep the Python loop bounded
            return
        covered = sum(
            end - start
            for start, end in (spec.cell_range(i) for i in range(spec.num_cells))
        )
        assert covered == spec.region_size

"""Tests for the secure core and the analysis-time model."""

import numpy as np
import pytest

from repro import obs
from repro.core.mhm import MemoryHeatMap
from repro.core.spec import HeatMapSpec
from repro.hw.securecore import AnalysisTimingModel, SecureCore
from repro.learn.metrics import alarm_streaks


class TestTimingModel:
    """The model is calibrated to reproduce Section 5.4 exactly."""

    def test_paper_base_configuration(self):
        model = AnalysisTimingModel()
        assert model.analysis_time_us(1472, 9, 5) == pytest.approx(358, abs=1.0)

    def test_paper_coarse_granularity(self):
        # delta = 8 KB -> L = 368 -> 100 us.
        model = AnalysisTimingModel()
        assert model.analysis_time_us(368, 9, 5) == pytest.approx(100, abs=1.0)

    def test_paper_fewer_eigenmemories(self):
        # L' = 5 -> 216 us.
        model = AnalysisTimingModel()
        assert model.analysis_time_us(1472, 5, 5) == pytest.approx(216, abs=1.0)

    def test_monotone_in_every_dimension(self):
        model = AnalysisTimingModel()
        base = model.analysis_time_us(1472, 9, 5)
        assert model.analysis_time_us(2000, 9, 5) > base
        assert model.analysis_time_us(1472, 12, 5) > base
        assert model.analysis_time_us(1472, 9, 8) > base


class TestSecureCore:
    @pytest.fixture()
    def spec(self):
        return HeatMapSpec(0x1000, 0x800, 0x100)

    def _map(self, spec, index=0, count=1):
        heat_map = MemoryHeatMap(spec, interval_index=index)
        heat_map.record(spec.base_address, count=count)
        return heat_map

    def test_receive_archives(self, spec):
        core = SecureCore(spec)
        core.receive(self._map(spec, 0))
        core.receive(self._map(spec, 1))
        assert core.intervals_received == 2
        assert len(core.series()) == 2
        assert len(core.series(start=1)) == 1

    def test_spec_mismatch_rejected(self, spec):
        core = SecureCore(spec)
        other = HeatMapSpec(0x9000, 0x800, 0x100)
        with pytest.raises(ValueError, match="mismatched spec"):
            core.receive(MemoryHeatMap(other))

    def test_online_scoring(self, spec):
        """The secure core archives; the verdict is taken over the
        archived window, and the timing model prices it per MHM."""
        core = SecureCore(spec)
        core.receive(self._map(spec, 0, count=1))
        core.receive(self._map(spec, 1, count=10))
        counts = core.series().matrix().sum(axis=1)
        flags = counts > 5
        streaks = alarm_streaks(flags)
        assert flags.tolist() == [False, True]
        assert np.flatnonzero(streaks == 1).tolist() == [1]
        assert AnalysisTimingModel().analysis_time_us(spec.num_cells, 9, 5) > 0

    def test_receive_records_no_verdict(self, spec):
        with obs.observed() as (registry, _):
            core = SecureCore(spec)
            core.receive(self._map(spec))
            snapshot = registry.snapshot()
        assert snapshot["securecore.mhms_received"]["value"] == 1
        assert [k for k in snapshot if k.startswith("securecore.")] == [
            "securecore.mhms_received"
        ]

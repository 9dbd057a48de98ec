"""Second-modality serving: ensemble fleets stay shard-invariant.

The serving layer's acceptance bar for the context modality: running
the adversarial corpus through ``FleetService`` with the ensemble
enabled must stay **bit-identical across shard counts** — the context
drift channel is stateful per device (a residual cumsum), so this
pins that the state lives with the device and not with the shard —
and the per-modality telemetry counters must actually count.
"""

import dataclasses

import pytest

from repro import obs
from repro.learn.ensemble import MODALITIES, EnsembleConfig
from repro.serve import FleetService
from repro.serve.worker import ShardWorker

pytestmark = [pytest.mark.contexts]


@pytest.fixture(scope="module")
def ensemble_config(base_config):
    # 24 intervals: enough stream for the app-launch device's drift
    # statistic to clear the calibrated bound.
    return dataclasses.replace(
        base_config, intervals=24, modality="ensemble"
    )


@pytest.fixture(scope="module")
def serial_ensemble_report(ensemble_config):
    return FleetService(ensemble_config).run()


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_ensemble_canonical_report_bit_identical(
        self, serial_ensemble_report, ensemble_config, shards
    ):
        sharded = FleetService(
            dataclasses.replace(ensemble_config, shards=shards)
        ).run()
        assert (
            sharded.canonical_dict()
            == serial_ensemble_report.canonical_dict()
        )
        assert (
            sharded.fleet_digest == serial_ensemble_report.fleet_digest
        )

    def test_contexts_only_modality_is_also_invariant(self, ensemble_config):
        contexts_config = dataclasses.replace(
            ensemble_config, modality="contexts"
        )
        serial = FleetService(contexts_config).run()
        sharded = FleetService(
            dataclasses.replace(contexts_config, shards=2)
        ).run()
        assert serial.canonical_dict() == sharded.canonical_dict()

    def test_mhm_digests_unchanged_by_the_new_schema(self, base_config):
        # Single-modality serving must not notice the second modality
        # exists: same config, same digests as any pre-ensemble build
        # (the context hash only chains in when context scores flow).
        report = FleetService(base_config).run()
        assert report.modality == "mhm"
        for device in report.device_reports:
            assert device.context_flagged == 0
            assert device.context_drift_max is None
            assert not device.context_drift_exceeded


class TestEnsembleVerdicts:
    def test_report_carries_the_modality(self, serial_ensemble_report):
        assert serial_ensemble_report.modality == "ensemble"

    def test_context_channel_sees_the_attack(self, serial_ensemble_report):
        attacked = [
            d
            for d in serial_ensemble_report.device_reports
            if d.scenario is not None
        ]
        assert attacked
        # At least one attacked device trips the context modality —
        # interval flags or the drift channel.
        assert any(
            d.context_flagged > 0 or d.context_drift_exceeded
            for d in attacked
        )
        assert all(d.alarms > 0 for d in attacked)

    def test_clean_devices_keep_drift_bounded(self, serial_ensemble_report):
        clean = [
            d
            for d in serial_ensemble_report.device_reports
            if d.scenario is None
        ]
        assert clean
        assert not any(d.context_drift_exceeded for d in clean)

    def test_or_rule_flags_superset_of_mhm_only(
        self, base_config, ensemble_config
    ):
        mhm_only = FleetService(
            dataclasses.replace(base_config, intervals=24)
        ).run()
        by_id = {d.device_id: d for d in mhm_only.device_reports}
        for device in FleetService(ensemble_config).run().device_reports:
            # p_mhm drops from 1.0 to 0.5 under the budget split, so
            # the MHM channel alone flags no more than before; the OR
            # fusion can only add the context channel's flags on top.
            assert device.flagged >= by_id[device.device_id].flagged or (
                device.context_flagged == 0
            )


class TestEnsembleRules:
    """The worker's non-default fusion rule, end to end."""

    def test_and_rule_flags_no_more_than_or(
        self, serial_ensemble_report, ensemble_config
    ):
        both = FleetService(
            dataclasses.replace(
                ensemble_config, ensemble=EnsembleConfig(rule="and")
            )
        ).run()
        by_id = {d.device_id: d for d in serial_ensemble_report.device_reports}
        for device in both.device_reports:
            either = by_id[device.device_id]
            assert device.flagged <= either.flagged
            # Both flags are computed before fusing, so the context
            # channel's own state does not depend on the rule.
            assert device.context_flagged == either.context_flagged
            assert device.context_drift_max == either.context_drift_max
        # The rule is live on this fleet: some flag loses its partner.
        assert sum(d.flagged for d in both.device_reports) < sum(
            d.flagged for d in serial_ensemble_report.device_reports
        )


class TestModalityTelemetry:
    def test_per_modality_counters_count(self, ensemble_config):
        with obs.observed() as (metrics, _tracer):
            FleetService(ensemble_config).run()
            snapshot = metrics.snapshot()
        mhm_flags = snapshot['serve.modality.flags{modality="mhm"}']
        context_flags = snapshot['serve.modality.flags{modality="context"}']
        alarms = snapshot['serve.modality.alarms{modality="ensemble"}']
        assert mhm_flags["value"] > 0
        assert context_flags["value"] > 0
        assert alarms["value"] > 0

    def test_mhm_run_reports_its_own_alarm_label(self, base_config):
        with obs.observed() as (metrics, _tracer):
            FleetService(base_config).run()
            snapshot = metrics.snapshot()
        assert 'serve.modality.alarms{modality="mhm"}' in snapshot
        assert (
            'serve.modality.alarms{modality="ensemble"}' not in snapshot
        )


class TestConfigValidation:
    def test_modality_registry(self):
        assert MODALITIES == ("mhm", "contexts", "ensemble")

    def test_unknown_modality_rejected(self, base_config):
        with pytest.raises(ValueError, match="modality"):
            dataclasses.replace(base_config, modality="telepathy")

    def test_worker_requires_context_models(self):
        with pytest.raises(ValueError, match="context"):
            ShardWorker(
                detectors={},
                specs=[],
                modality="ensemble",
                ensemble=EnsembleConfig(),
            )

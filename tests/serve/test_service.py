"""FleetService: the serial ≡ sharded contract and the report schema."""

import json

import pytest

from repro import faults
from repro.serve import FleetReport, FleetService, ServeConfig
from repro.serve.report import device_digest


@pytest.fixture(scope="module")
def serial_report(base_config):
    return FleetService(base_config).run()


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_canonical_report_bit_identical(
        self, serial_report, config_factory, shards
    ):
        """--shards 1 and --shards K on the same seed agree bitwise:
        same per-device digests, same fleet digest, same counts."""
        sharded = FleetService(config_factory(shards=shards)).run()
        assert sharded.canonical_dict() == serial_report.canonical_dict()

    def test_digests_cover_every_device(self, serial_report, base_config):
        sequences = serial_report.verdict_sequences
        assert len(sequences) == base_config.devices
        assert all(len(d) == 64 for d in sequences.values())

    def test_shard_partition_is_modular(self, config_factory):
        report = FleetService(config_factory(shards=2)).run()
        for dev in report.device_reports:
            assert dev.shard == dev.device_index % 2


class TestAccounting:
    def test_nothing_lost_under_default_drain(self, serial_report, base_config):
        assert serial_report.emitted == (
            base_config.devices * base_config.intervals
        )
        assert serial_report.dropped == 0
        assert serial_report.emitted == (
            serial_report.scored + serial_report.skipped
        )

    def test_drop_oldest_accounting_invariant(self, config_factory):
        # A queue smaller than one fleet step's emission (4 devices)
        # overflows at every step barrier: 2 of each step's 4 records
        # are evicted.
        report = FleetService(
            config_factory(
                policy="drop-oldest", queue_capacity=2, batch_size=2,
            )
        ).run()
        assert report.dropped == report.emitted // 2 > 0
        assert report.emitted == (
            report.scored + report.skipped + report.dropped
        )
        per_device = sum(d.dropped for d in report.device_reports)
        assert per_device == report.dropped

    def test_block_policy_never_drops(self, config_factory):
        report = FleetService(
            config_factory(
                policy="block", queue_capacity=2, batch_size=2,
            )
        ).run()
        assert report.dropped == 0
        assert report.block_stalls > 0
        assert report.emitted == report.scored + report.skipped


class TestFaultDegradation:
    def test_serve_score_faults_degrade_and_stay_shard_invariant(
        self, config_factory
    ):
        plan = faults.FaultPlan(
            seed=5,
            sites={
                "serve.score": faults.FaultSpec(
                    probability=0.3, mode="corrupt"
                )
            },
        )
        serial = FleetService(config_factory(), fault_plan=plan).run()
        sharded = FleetService(
            config_factory(shards=2), fault_plan=plan
        ).run()
        assert serial.skipped > 0
        # Fault decisions hash (seed, site, device@interval): the same
        # records degrade regardless of shard placement.
        assert sharded.canonical_dict() == serial.canonical_dict()


class TestAttackDetection:
    def test_attacked_devices_alarm(self, config_factory):
        """With a long enough window the attacked devices alarm and
        report finite detection latency; benign devices stay quiet."""
        # consecutive_for_alarm=1: at this tiny training scale the
        # post-attack density drop is intermittent (the dead task's
        # intervals interleave with still-normal ones), so alarm on
        # the first flagged interval; streak semantics are unit-tested
        # in test_worker.py.
        report = FleetService(
            config_factory(
                devices=2, intervals=24, attacked_devices=1,
                attack_scenarios=("shellcode",), profiles=("baseline",),
                seed=4, consecutive_for_alarm=1,
            )
        ).run()
        attacked = [d for d in report.device_reports if d.scenario]
        benign = [d for d in report.device_reports if not d.scenario]
        assert len(attacked) == 1 and len(benign) == 1
        assert attacked[0].alarms >= 1
        assert attacked[0].detection_latency is not None
        assert attacked[0].detection_latency <= 6
        assert benign[0].alarms == 0
        assert report.attacked_devices_alarmed == 1


class TestAdversarialCorpusShardInvariance:
    """The four adversarial scenarios ride the same serial ≡ sharded
    contract as the paper's three — stealth payloads (periodic pumps,
    service shadows) must not leak scheduler state across shards."""

    CORPUS = ("interrupt-storm", "mimicry", "slow-drift", "smm-shadow")

    @pytest.fixture(scope="class")
    def corpus_serial(self, base_config):
        import dataclasses

        config = dataclasses.replace(
            base_config,
            devices=4,
            attacked_devices=4,
            intervals=10,
            attack_scenarios=self.CORPUS,
        )
        return FleetService(config).run()

    def test_every_adversarial_scenario_is_injected(self, corpus_serial):
        scenarios = sorted(
            d.scenario for d in corpus_serial.device_reports if d.scenario
        )
        assert scenarios == sorted(self.CORPUS)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_digests_bit_identical(
        self, corpus_serial, config_factory, shards
    ):
        sharded = FleetService(
            config_factory(
                devices=4,
                attacked_devices=4,
                intervals=10,
                attack_scenarios=self.CORPUS,
                shards=shards,
            )
        ).run()
        assert sharded.canonical_dict() == corpus_serial.canonical_dict()

    def test_truth_windows_are_labelled(self, corpus_serial):
        from repro.pipeline.stages import scenario_reversible

        for dev in corpus_serial.device_reports:
            assert dev.scenario in self.CORPUS
            # All four adversarial payloads are reversible, so every
            # stream carries both anomalous and benign truth labels.
            assert scenario_reversible(dev.scenario)
            assert dev.attack_intervals > 0
            assert dev.benign_intervals > 0


class TestReportSchema:
    def test_json_round_trip(self, serial_report, tmp_path):
        path = tmp_path / "fleet.json"
        serial_report.write(path)
        loaded = FleetReport.load(path)
        assert loaded.to_dict() == serial_report.to_dict()
        assert loaded.fleet_digest == serial_report.fleet_digest

    def test_unsupported_schema_rejected(self, serial_report):
        payload = serial_report.to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            FleetReport.from_dict(payload)

    def test_legacy_float64_kernels_dtype_loads(self, serial_report):
        payload = serial_report.to_dict()
        payload["kernels_dtype"] = "float64"
        loaded = FleetReport.from_dict(payload)
        assert loaded.to_dict() == serial_report.to_dict()

    def test_legacy_float32_report_rejected(self, serial_report):
        payload = serial_report.to_dict()
        payload["kernels_dtype"] = "float32"
        with pytest.raises(ValueError, match="removed float32"):
            FleetReport.from_dict(payload)

    def test_report_is_json_serializable(self, serial_report):
        json.dumps(serial_report.to_dict())

    def test_device_digest_sensitive_to_everything(self):
        base = device_digest([0, 1], [-1.5, -2.5], ["ok", "ok"])
        assert device_digest([0, 2], [-1.5, -2.5], ["ok", "ok"]) != base
        assert device_digest([0, 1], [-1.5, -2.6], ["ok", "ok"]) != base
        assert (
            device_digest([0, 1], [-1.5, -2.5], ["ok", "anomalous"]) != base
        )

    def test_rates(self, serial_report):
        for dev in serial_report.device_reports:
            if dev.benign_intervals:
                assert 0.0 <= dev.false_positive_rate <= 1.0
            if dev.attack_intervals:
                assert 0.0 <= dev.detection_rate <= 1.0


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(devices=0),
            dict(devices=2, shards=3),
            dict(shards=0),
            dict(intervals=0),
            dict(policy="bogus"),
            dict(consecutive_for_alarm=0),
            dict(p_percent=0.0),
            dict(queue_capacity=0),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_lockstep_executor_says_it_was_removed(self):
        with pytest.raises(ValueError, match="removed"):
            ServeConfig(executor="lockstep")

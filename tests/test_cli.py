"""Tests for the command-line interface."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import (
    EXIT_ALARM,
    EXIT_JOB_FAILURES,
    EXIT_OK,
    ExitCode,
    build_parser,
    main,
)
from repro.kernels import DEFAULT_BACKEND, use_backend
from repro.learn.detector import LN10
from repro.learn.ensemble import EnsembleConfig
from repro.obs.snapshots import latest_snapshots
from repro.pipeline.experiments import run_scenario_experiment

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN_DETECT = json.loads((FIXTURES / "golden_detect_quick.json").read_text())
GOLDEN_MONITOR_ATTACK = json.loads(
    (FIXTURES / "golden_monitor_attack.json").read_text()
)


@pytest.fixture(scope="module")
def trained_detector_path(tmp_path_factory):
    """A quick CLI detector, fitted on the default kernels backend: the
    monitor/attack goldens were recorded on its bits."""
    path = tmp_path_factory.mktemp("cli") / "detector.npz"
    with use_backend(DEFAULT_BACKEND):
        code = main(
            [
                "train",
                "--runs",
                "2",
                "--intervals",
                "60",
                "--validation",
                "60",
                "--restarts",
                "2",
                "--out",
                str(path),
            ]
        )
    assert code == EXIT_OK
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "--detector", "x", "--scenario", "nuke"]
            )

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["monitor"])  # missing --detector
        assert excinfo.value.code == 2

    def test_bench_check_help_names_every_speedup_floor(self, capsys):
        from repro.bench import DEFAULT_SPEEDUP_FLOOR, SPEEDUP_FLOORS

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for floor in SPEEDUP_FLOORS.values():
            assert f">={floor:g}x" in text
        assert DEFAULT_SPEEDUP_FLOOR == 1.0 and "never slower elsewhere" in text


class TestCommands:
    def test_train_writes_detector(self, trained_detector_path, capsys):
        assert trained_detector_path.exists()

    def test_monitor_normal_run(self, trained_detector_path, capsys):
        code = main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "40",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "intervals flagged" in captured.out

    def test_attack_scenarios(self, trained_detector_path, capsys):
        for scenario in ("app-launch", "shellcode", "rootkit"):
            code = main(
                [
                    "attack",
                    "--detector",
                    str(trained_detector_path),
                    "--scenario",
                    scenario,
                    "--pre",
                    "30",
                    "--during",
                    "30",
                ]
            )
            captured = capsys.readouterr()
            # Exit 3 means the scenario raised an alarm — the expected
            # outcome for a detected attack; 0 means it went unnoticed.
            assert code in (EXIT_OK, EXIT_ALARM)
            assert scenario in captured.out
            assert "alarms" in captured.out

    def test_heatmap(self, capsys):
        code = main(["heatmap", "--interval-index", "2", "--width", "64"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "AddrBase" in captured.out


class TestExitCodes:
    def test_shellcode_attack_raises_alarm(self, trained_detector_path, capsys):
        """The blatant attack must be detected -> exit 3 (EXIT_ALARM)."""
        code = main(
            [
                "attack",
                "--detector",
                str(trained_detector_path),
                "--scenario",
                "shellcode",
                "--pre",
                "20",
                "--during",
                "30",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_ALARM

    def test_missing_detector_is_clean_error(self, capsys):
        code = main(["monitor", "--detector", "ghost.npz", "--intervals", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_bad_trace_directory_fails_before_running(
        self, trained_detector_path, tmp_path, capsys
    ):
        code = main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "5",
                "--trace",
                str(tmp_path / "nodir" / "t.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "does not exist" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["monitor", "--intervals", "5"], ["attack", "--scenario", "shellcode"]],
        ids=["monitor", "attack"],
    )
    def test_uncalibrated_quantile_is_a_usage_error(
        self, trained_detector_path, capsys, monkeypatch, argv
    ):
        # Refused before any simulation runs.
        import repro.cli

        def no_platform(*_args, **_kwargs):
            raise AssertionError("simulated despite the usage error")

        monkeypatch.setattr(repro.cli, "Platform", no_platform)
        monkeypatch.setattr(repro.cli, "run_scenario_cached", no_platform)
        code = main(
            [*argv, "--detector", str(trained_detector_path), "--quantile", "5"]
        )
        captured = capsys.readouterr()
        assert code == ExitCode.USAGE
        assert captured.err == (
            "error: no θ_5.0 calibrated (available: [0.5, 1.0])\n"
        )
        assert captured.out == ""

    def test_monitor_normal_is_exit_ok(self, trained_detector_path, capsys):
        code = main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "30",
                "--alarm-consecutive",
                "5",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK


def golden_verdicts(payload: dict) -> dict:
    """The exactly pinned part of a ``monitor``/``attack`` JSON report:
    per-interval flags, alarms (less their density) and the verdict
    summaries.  ``monitor`` has no ``flags`` key; its flags are the
    densities below the threshold."""
    flags = payload.get("flags")
    if flags is None:
        threshold = payload["log10_threshold"]
        flags = [d < threshold for d in payload["log10_densities"]]
    view = {
        "flags": "".join("1" if f else "0" for f in flags),
        "alarms": [
            {k: v for k, v in alarm.items() if k != "log_density"}
            for alarm in payload["alarms"]
        ],
    }
    for key in (
        "first_alarm_interval",
        "detection_latency_intervals",
        "flagged",
        "skipped",
        "pre_attack_fpr",
        "post_attack_flag_rate",
    ):
        if key in payload:
            view[key] = payload[key]
    return view


class TestMonitorAttackGolden:
    """``repro monitor``/``repro attack --json`` verdicts frozen on the
    quick CLI detector: flags, alarms, summaries and exit codes are
    exact.  Densities (ln) agree to 1e-12 plus 1e-14 relative: batch
    and one-row scoring may differ in the last bits, and a few
    ulps of an attacked interval's ln density near -2.6e5 is ~1e-10."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_MONITOR_ATTACK["cases"]))
    def test_verdicts_match_golden(self, trained_detector_path, capsys, case):
        golden = GOLDEN_MONITOR_ATTACK["cases"][case]
        command, *rest = golden["argv"]
        with use_backend(DEFAULT_BACKEND):
            code = main(
                [command, "--detector", str(trained_detector_path), "--json", *rest]
            )
        payload = json.loads(capsys.readouterr().out)
        assert code == golden["exit_code"]
        assert golden_verdicts(payload) == golden["verdicts"]
        np.testing.assert_allclose(
            np.asarray(payload["log10_densities"]) * LN10,
            np.asarray(golden["log10_densities"]) * LN10,
            rtol=1e-14,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            [alarm["log_density"] for alarm in payload["alarms"]],
            golden["alarm_log_densities"],
            rtol=1e-14,
            atol=1e-12,
        )


class TestJsonOutput:
    def test_heatmap_json(self, capsys):
        code = main(["heatmap", "--interval-index", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["command"] == "heatmap"
        assert payload["interval_index"] == 1
        assert len(payload["counts"]) == payload["spec"]["num_cells"]
        assert all(isinstance(c, int) for c in payload["counts"])

    def test_monitor_json(self, trained_detector_path, capsys):
        code = main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "20",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code in (EXIT_OK, EXIT_ALARM)
        assert payload["command"] == "monitor"
        assert payload["intervals"] == 20
        assert len(payload["log10_densities"]) == 20
        assert isinstance(payload["log10_threshold"], float)

    def test_attack_json(self, trained_detector_path, capsys):
        code = main(
            [
                "attack",
                "--detector",
                str(trained_detector_path),
                "--scenario",
                "shellcode",
                "--pre",
                "15",
                "--during",
                "20",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "attack"
        assert payload["scenario"] == "shellcode"
        assert payload["attack_interval"] == 15
        if code == EXIT_ALARM:
            assert payload["alarms"]
            assert payload["first_alarm_interval"] >= payload["attack_interval"]


class TestObservabilityArtifacts:
    def test_monitor_trace_and_manifest(self, trained_detector_path, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        manifest = tmp_path / "metrics.json"
        code = main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "10",
                "--trace",
                str(trace),
                "--metrics-out",
                str(manifest),
            ]
        )
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_ALARM)

        loaded = json.loads(trace.read_text())
        names = {e["name"] for e in loaded["traceEvents"]}
        assert "interval.boundary" in names
        assert "memometer.buffer_swap" in names
        boundaries = [
            e for e in loaded["traceEvents"] if e["name"] == "interval.boundary"
        ]
        assert len(boundaries) == 10
        # Simulated timestamps: interval i ends at (i+1) * 10 ms.
        assert boundaries[0]["ts"] == pytest.approx(10_000.0)

        data = json.loads(manifest.read_text())
        assert data["command"] == "monitor"
        assert data["intervals"] == 10
        assert data["metrics"]["monitor.intervals_scored"]["value"] == 10
        # One verdict per interval, stamped at its boundary; a batch
        # call has no per-interval wall time to record.
        verdicts = [
            e for e in loaded["traceEvents"] if e["name"] == "detector.verdict"
        ]
        assert [e["ts"] for e in verdicts] == [e["ts"] for e in boundaries]
        assert "monitor.analysis_wall_us" not in data["metrics"]
        assert data["extra"]["trace_events"] == len(loaded["traceEvents"]) - 1

    def test_attack_trace_contains_alarm_events(
        self, trained_detector_path, tmp_path, capsys
    ):
        trace = tmp_path / "attack.json"
        code = main(
            [
                "attack",
                "--detector",
                str(trained_detector_path),
                "--scenario",
                "shellcode",
                "--pre",
                "15",
                "--during",
                "20",
                "--trace",
                str(trace),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_ALARM
        names = [e["name"] for e in json.loads(trace.read_text())["traceEvents"]]
        assert "monitor.alarm" in names
        assert "detector.verdict" in names

    def test_jsonl_trace_extension(self, trained_detector_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "5",
                "--trace",
                str(trace),
            ]
        )
        capsys.readouterr()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines and all("name" in line and "ts" in line for line in lines)

    def test_train_manifest_has_phase_timings(self, tmp_path, capsys):
        manifest = tmp_path / "train.json"
        code = main(
            [
                "train",
                "--runs",
                "1",
                "--intervals",
                "30",
                "--validation",
                "30",
                "--restarts",
                "1",
                "--gaussians",
                "2",
                "--out",
                str(tmp_path / "d.npz"),
                "--metrics-out",
                str(manifest),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        metrics = json.loads(manifest.read_text())["metrics"]
        for phase in ("collect.training", "collect.validation", "train.fit"):
            assert metrics[phase]["count"] >= 1
            assert metrics[phase]["total"] > 0.0

    def test_stats_renders_manifest(self, trained_detector_path, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        main(
            [
                "monitor",
                "--detector",
                str(trained_detector_path),
                "--intervals",
                "5",
                "--metrics-out",
                str(manifest),
            ]
        )
        capsys.readouterr()
        code = main(["stats", str(manifest)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "run manifest" in out
        assert "monitor.intervals_scored" in out
        assert "counters" in out


class TestExperimentsFaultFlags:
    """The hardened-runner surface of ``repro experiments``: fault
    plans, retry limits, failure manifests, and exit code 4."""

    TINY = [
        "--scenario", "shellcode", "--no-cache",
        "--train-runs", "1", "--train-intervals", "20", "--validation", "20",
    ]

    @staticmethod
    def _kill_all_plan(tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "sites": {
                        "runner.job": {"mode": "raise", "probability": 1.0}
                    },
                }
            )
        )
        return plan

    def test_clean_grid_exits_ok(self, capsys):
        code = main(["experiments", *self.TINY])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "1 of 1 jobs" in out

    def test_failed_jobs_exit_4_and_write_manifest(self, tmp_path, capsys):
        failures = tmp_path / "failures.json"
        code = main(
            [
                "experiments", *self.TINY,
                "--fault-plan", str(self._kill_all_plan(tmp_path)),
                "--max-retries", "0",
                "--failures-out", str(failures),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_JOB_FAILURES
        assert "FAILED" in captured.err
        manifest = json.loads(failures.read_text())
        assert manifest["failed"] == 1
        assert manifest["completed"] == 0
        assert manifest["failures"][0]["site"] == "runner.job"

    def test_fail_fast_also_exits_4(self, tmp_path, capsys):
        code = main(
            [
                "experiments", *self.TINY,
                "--fault-plan", str(self._kill_all_plan(tmp_path)),
                "--max-retries", "0", "--fail-fast",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_JOB_FAILURES

    def test_json_report_carries_failures_and_retries(self, tmp_path, capsys):
        code = main(
            [
                "experiments", *self.TINY, "--json",
                "--fault-plan", str(self._kill_all_plan(tmp_path)),
                "--max-retries", "1",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_JOB_FAILURES
        assert payload["retries"] == 1
        assert len(payload["failures"]) == 1
        assert payload["failures"][0]["attempts"] == 2

    def test_bad_fault_plan_is_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sites": {"not.a.site": {"mode": "raise"}}}))
        code = main(["experiments", *self.TINY, "--fault-plan", str(plan)])
        capsys.readouterr()
        assert code == 2


class TestExitCodeEnum:
    """ExitCode is the single source of truth; values are frozen API."""

    def test_enum_values_are_stable(self):
        from repro.cli import ExitCode

        assert ExitCode.OK == 0
        assert ExitCode.IO_ERROR == 1
        assert ExitCode.USAGE == 2
        assert ExitCode.ALARM == 3
        assert ExitCode.JOB_FAILURES == 4
        assert ExitCode.BENCH_REGRESSION == 5
        assert ExitCode.SERVE_DEGRADED == 6
        assert ExitCode.MATRIX_DIVERGENCE == 7
        assert ExitCode.BUS_STALL == 8
        assert len(ExitCode) == 9

    def test_legacy_aliases_point_at_the_enum(self):
        from repro import cli

        assert cli.EXIT_OK is cli.ExitCode.OK
        assert cli.EXIT_USAGE is cli.ExitCode.USAGE
        assert cli.EXIT_ALARM is cli.ExitCode.ALARM
        assert cli.EXIT_JOB_FAILURES is cli.ExitCode.JOB_FAILURES
        assert cli.EXIT_BENCH_REGRESSION is cli.ExitCode.BENCH_REGRESSION
        assert cli.EXIT_SERVE_DEGRADED is cli.ExitCode.SERVE_DEGRADED
        assert cli.EXIT_MATRIX_DIVERGENCE is cli.ExitCode.MATRIX_DIVERGENCE

    def test_every_documented_code_is_in_the_docstring_table(self):
        """The module docstring documents each exit code it defines."""
        import repro.cli as cli

        for member in cli.ExitCode:
            assert f"``{member.value}``" in cli.__doc__, member

    def test_codes_are_ints_for_sys_exit(self):
        from repro.cli import ExitCode

        for member in ExitCode:
            assert isinstance(int(member), int)
            assert 0 <= member.value < 128


class TestMatrixCommand:
    """`repro matrix`: the conformance matrix as a CLI gate."""

    TINY = ["matrix", "--sizing", "tiny", "--no-cache"]

    def test_unknown_sizing_is_parse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--sizing", "galactic"])

    def test_unknown_scenario_is_parse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--scenario", "nuke"])

    def test_subset_json_run_is_conformant(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        code = main(
            [
                *self.TINY, "--json", "--out", str(out),
                "--scenario", "slow-drift", "--scenario", "smm-shadow",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(captured.out)
        assert payload == json.loads(out.read_text())
        assert payload["conformant"] is True
        assert payload["scenarios"] == ["slow-drift", "smm-shadow"]
        assert len(payload["cells"]) == 2 * len(payload["detectors"])

    def test_table_output_lists_every_cell(self, capsys):
        code = main([*self.TINY, "--scenario", "smm-shadow"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "conformance matrix" in captured.out
        for column in ("gmm-alarm", "gmm-interval", "drift", "fpr-budget"):
            assert column in captured.out
        assert "DIVERGED" not in captured.out


@pytest.mark.contexts
class TestDetectCommand:
    """`repro detect`: one scenario judged under a fused modality."""

    @pytest.mark.parametrize(
        "rule, fuse", [("and", np.logical_and), ("or", np.logical_or)]
    )
    def test_rule_fuses_both_modalities(
        self, quick_artifacts, capsys, rule, fuse
    ):
        # Seed 0 at quick scale is the session-memoised reference
        # artifacts, so --no-cache trains nothing here.
        code = main(
            [
                "detect", "--json", "--no-cache", "--modality", "ensemble",
                "--ensemble-rule", rule,
            ]
        )
        report = json.loads(capsys.readouterr().out)
        mhm_p, context_p = EnsembleConfig(rule=rule).budgets("ensemble", 1.0)
        outcome = run_scenario_experiment(
            "mimicry", quick_artifacts, scenario_seed=999
        )
        fused = fuse(
            outcome.flags(mhm_p),
            outcome.context_flags(context_p),
        )
        assert report["modality"] == "ensemble"
        assert report["detection_rate"] == float(
            fused[outcome.ground_truth].mean()
        )
        assert code == (EXIT_ALARM if report["detected"] else EXIT_OK)

    @pytest.mark.parametrize("case", sorted(GOLDEN_DETECT["cases"]))
    def test_output_matches_golden(self, quick_artifacts, capsys, case):
        # Frozen stdout and exit code of every modality (and both
        # ensemble rules) on the mimicry scenario at quick scale.
        golden = GOLDEN_DETECT["cases"][case]
        code = main([*GOLDEN_DETECT["command"], *golden["argv"]])
        assert capsys.readouterr().out == golden["stdout"]
        assert code == golden["exit_code"]

    @pytest.mark.parametrize("command", ["detect", "serve"])
    def test_removed_weighted_rule_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--ensemble-rule", "weighted"])
        assert excinfo.value.code == ExitCode.USAGE
        assert "weighted" in capsys.readouterr().err


class TestServeCommand:
    TINY = [
        "serve", "--devices", "3", "--intervals", "6", "--seed", "11",
        "--train-runs", "1", "--train-intervals", "40",
        "--validation", "40",
    ]

    def _run(self, extra, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code = main([*self.TINY, "--cache-dir", cache, *extra])
        return code, capsys.readouterr()

    def test_serve_exits_ok_and_renders_tables(self, tmp_path, capsys):
        code, captured = self._run([], tmp_path, capsys)
        assert code == EXIT_OK
        assert "fleet totals" in captured.out
        assert "dev-0000" in captured.out

    def test_serve_writes_report_and_fleet_report_renders_it(
        self, tmp_path, capsys
    ):
        out = tmp_path / "fleet.json"
        code, _ = self._run(["--report-out", str(out)], tmp_path, capsys)
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["devices"] == 3
        assert payload["dropped"] == 0
        code = main(["fleet-report", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "fleet digest" in captured.out

    def test_serve_json_output(self, tmp_path, capsys):
        code, captured = self._run(["--json"], tmp_path, capsys)
        assert code == EXIT_OK
        payload = json.loads(captured.out)
        assert payload["emitted"] == 18
        assert len(payload["device_reports"]) == 3

    def test_drop_policy_under_throttle_exits_degraded(
        self, tmp_path, capsys
    ):
        code, captured = self._run(
            [
                "--policy", "drop-oldest", "--capacity", "2",
                "--batch", "2",
            ],
            tmp_path, capsys,
        )
        from repro.cli import ExitCode

        assert code == ExitCode.SERVE_DEGRADED
        assert "dropped under" in captured.err

    def test_block_policy_under_throttle_exits_ok(self, tmp_path, capsys):
        code, _ = self._run(
            [
                "--policy", "block", "--capacity", "2", "--batch", "2",
            ],
            tmp_path, capsys,
        )
        assert code == EXIT_OK

    def test_duration_maps_to_intervals(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--duration", "0.5"])
        from repro.cli import _serve_intervals

        assert _serve_intervals(args) == 50  # 10 ms cadence

    def test_bad_profile_is_usage_error(self, tmp_path, capsys):
        code, captured = self._run(
            ["--profiles", "baseline,bogus"], tmp_path, capsys
        )
        assert code == 2
        assert "unknown device profile" in captured.err

    def test_more_shards_than_devices_is_usage_error(
        self, tmp_path, capsys
    ):
        code, captured = self._run(["--shards", "9"], tmp_path, capsys)
        assert code == 2

    def test_bad_fault_plan_is_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sites": {"not.a.site": {"mode": "raise"}}}))
        code, captured = self._run(
            ["--fault-plan", str(plan)], tmp_path, capsys
        )
        assert code == 2
        assert "invalid fault plan" in captured.err

    def test_missing_fleet_report_is_io_error(self, capsys):
        code = main(["fleet-report", "ghost.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_invalid_fleet_report_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "device_reports": []}))
        code = main(["fleet-report", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid fleet report" in captured.err


class TestServeAsyncCLI:
    """The event-bus flags: cadences, failures manifest, bus report."""

    TINY = TestServeCommand.TINY
    _run = TestServeCommand._run

    def test_async_executor_exits_ok_and_records_bus(
        self, tmp_path, capsys
    ):
        out = tmp_path / "fleet.json"
        code, _ = self._run(
            ["--report-out", str(out)],
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["executor"] == "async"
        assert payload["bus"]["published"] > 0
        assert payload["bus"]["failures"] == []

    def test_cadences_with_async_executor(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        code, _ = self._run(
            [
                "--cadences", "1,2",
                "--report-out", str(out),
            ],
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        cadences = {d["cadence"] for d in payload["device_reports"]}
        assert cadences == {1, 2}

    def test_malformed_cadences_is_usage_error(self, tmp_path, capsys):
        code, captured = self._run(
            ["--cadences", "1,x"],
            tmp_path, capsys,
        )
        assert code == 2
        assert "--cadences" in captured.err

    def test_poisoned_subscriber_writes_failures_manifest(
        self, tmp_path, capsys
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 5,
            "sites": {
                "subscriber.handle": {
                    "mode": "raise", "probability": 1.0,
                    "match": "reporting",
                },
            },
        }))
        failures_out = tmp_path / "failures.json"
        code, captured = self._run(
            [
                "--fault-plan", str(plan),
                "--failures-out", str(failures_out),
            ],
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        failures = json.loads(failures_out.read_text())
        assert len(failures) == 1
        assert failures[0]["subscriber"] == "reporting"
        assert "poisoned subscriber" in captured.err

    def test_healthy_run_writes_empty_manifest_quietly(
        self, tmp_path, capsys
    ):
        failures_out = tmp_path / "failures.json"
        code, captured = self._run(
            ["--failures-out", str(failures_out)],
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        assert json.loads(failures_out.read_text()) == []
        assert "poisoned" not in captured.err


class TestServeTelemetryCLI:
    """The observability surface added by the fleet-telemetry PR."""

    TINY = [
        "serve", "--devices", "3", "--intervals", "6", "--seed", "11",
        "--train-runs", "1", "--train-intervals", "40",
        "--validation", "40",
    ]

    def _run(self, extra, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code = main([*self.TINY, "--cache-dir", cache, *extra])
        return code, capsys.readouterr()

    def test_log_flag_writes_structured_jsonl(self, tmp_path, capsys):
        log_path = tmp_path / "serve.jsonl"
        code, _ = self._run(["--log", str(log_path)], tmp_path, capsys)
        assert code == EXIT_OK
        records = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert records[0]["event"] == "serve.start"
        assert records[-1]["event"] == "serve.report.ready"
        assert all("seq" in r and "component" in r for r in records)

    def test_health_out_is_ready_for_clean_run(self, tmp_path, capsys):
        health = tmp_path / "health.json"
        code, captured = self._run(["--health-out", str(health)], tmp_path, capsys)
        assert code == EXIT_OK
        summary = json.loads(health.read_text())
        assert summary["ready"] is True
        assert "NOT ready" not in captured.err

    def test_degraded_run_warns_on_stderr(self, tmp_path, capsys):
        health = tmp_path / "health.json"
        code, captured = self._run(
            [
                "--health-out", str(health),
                "--policy", "drop-oldest", "--capacity", "2",
                "--batch", "2",
            ],
            tmp_path, capsys,
        )
        summary = json.loads(health.read_text())
        assert summary["ready"] is False
        assert "health NOT ready" in captured.err
        assert "no_loss" in captured.err

    def test_metrics_out_prints_service_counter_footer(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code, captured = self._run(["--metrics-out", str(metrics)], tmp_path, capsys)
        assert code == EXIT_OK
        assert "service telemetry" in captured.out
        assert "serve.shard.intervals_scored" in captured.out

    def test_metrics_dir_feeds_repro_top_once(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        code, _ = self._run(
            [
                "--metrics-out", str(tmp_path / "m.json"),
                "--metrics-dir", str(snaps), "--metrics-interval", "3",
            ],
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        assert list(snaps.glob("*.metrics.json"))
        code = main(["top", "--once", str(snaps)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "repro top" in captured.out
        assert "shard" in captured.out
        assert "scored" in captured.out

    def test_top_frame_shows_queue_depth_and_latency_quantiles(
        self, tmp_path, capsys
    ):
        snaps = tmp_path / "snaps"
        code, _ = self._run(
            [
                "--metrics-out", str(tmp_path / "m.json"),
                "--metrics-dir", str(snaps),
            ],
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        metrics = latest_snapshots(snaps)[0]["metrics"]
        assert metrics['serve.shard.queue_depth{shard="0"}']["value"] > 0
        quantiles = metrics['serve.shard.batch_latency_us{shard="0"}'][
            "quantiles"
        ]
        assert all(quantiles[q] > 0 for q in ("p50", "p95", "p99"))
        code = main(["top", "--once", str(snaps)])
        frame = capsys.readouterr().out
        assert code == EXIT_OK
        lines = frame.splitlines()
        header = next(i for i, line in enumerate(lines) if "p50" in line)
        cells = [cell.strip() for cell in lines[header + 2].split("|")]
        assert cells[4] != "0", frame  # depth
        assert "-" not in cells[-3:], frame  # p50 / p95 / p99

    def test_top_on_empty_directory_renders_placeholder(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["top", "--once", str(tmp_path / "empty")])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "no snapshots" in captured.out

    def test_stats_shows_service_counters_from_serve_manifest(
        self, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        code, _ = self._run(["--metrics-out", str(metrics)], tmp_path, capsys)
        assert code == EXIT_OK
        code = main(["stats", str(metrics)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "service counters" in captured.out
        assert "serve.alarms" in captured.out or "serve.shard" in captured.out

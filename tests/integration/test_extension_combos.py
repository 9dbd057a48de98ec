"""Cross-extension integration: RTOS + attacks, SMP + online monitoring."""

import numpy as np
import pytest

from repro import kernels
from repro.attacks import ShellcodeAttack, SyscallHijackRootkit
from repro.learn.detector import MhmDetector
from repro.learn.metrics import alarm_streaks
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.smp import partition_tasks
from repro.sim.workloads.mibench import paper_taskset
from repro.sim.workloads.rtos import rtos_config


class TestRtosWithAttacks:
    @pytest.fixture(scope="class")
    def rtos_detector(self):
        config = rtos_config(seed=301)
        training = Platform(config).collect_intervals(200)
        validation = Platform(rtos_config(seed=302)).collect_intervals(150)
        return config, MhmDetector(em_restarts=2, seed=0).fit(training, validation)

    def test_shellcode_detected_on_rtos(self, rtos_detector):
        config, detector = rtos_detector
        platform = Platform(rtos_config(seed=303))
        platform.run_intervals(20)
        ShellcodeAttack(host="sensor_fusion").inject(platform)
        attacked = platform.collect_intervals(40)
        assert detector.classify_series(attacked, 1.0).mean() >= 0.5

    def test_rootkit_load_detected_on_rtos(self, rtos_detector):
        config, detector = rtos_detector
        platform = Platform(rtos_config(seed=304))
        platform.run_intervals(20)
        SyscallHijackRootkit().inject(platform)
        window = platform.collect_intervals(3)
        assert detector.classify_series(window, 1.0).any()

    def test_rtos_normal_fpr_low(self, rtos_detector):
        config, detector = rtos_detector
        platform = Platform(rtos_config(seed=305))
        normal = platform.collect_intervals(80)
        assert detector.classify_series(normal, 1.0).mean() <= 0.08


class TestSmpMonitoring:
    def test_online_alarm_on_smp_platform(self):
        tasks = tuple(partition_tasks(paper_taskset(), 2))
        config = PlatformConfig(seed=311, monitored_cores=2, tasks=tasks)
        training = Platform(config).collect_intervals(200)
        validation = Platform(config.with_seed(312)).collect_intervals(150)
        detector = MhmDetector(em_restarts=2, seed=0).fit(training, validation)

        platform = Platform(config.with_seed(313))
        scorer = kernels.FleetScorer.from_detectors(detector)
        theta = detector.threshold(1.0)
        quiet = scorer.score(platform.collect_intervals(50).matrix())
        quiet_flags = quiet.log_densities < theta
        assert quiet_flags.mean() <= 0.1

        # Attack a task living on the second core.
        victim = next(t.name for t in tasks if t.core == 1)
        ShellcodeAttack(host=victim).inject(platform)
        noisy = scorer.score(platform.collect_intervals(50).matrix())
        noisy_flags = noisy.log_densities < theta
        assert noisy_flags.sum() >= 20
        # One alarm rule over the whole run, K = 2: it fires, and only
        # after the attack.
        streaks = alarm_streaks(np.concatenate([quiet_flags, noisy_flags]))
        alarms = np.flatnonzero(streaks == 2)
        assert alarms.size
        assert alarms[0] >= 50


class TestTemporalOnRtos:
    def test_phase_structure_stronger_on_rtos(self):
        """Harmonic RTOS schedules have crisper component sequences:
        the Markov chain's transitions are more deterministic."""
        from repro.learn.temporal import TemporalDetector

        def transition_entropy(config_factory):
            training = Platform(config_factory(601)).collect_intervals(250)
            validation = Platform(config_factory(602)).collect_intervals(150)
            detector = MhmDetector(em_restarts=2, seed=0).fit(training, validation)
            temporal = TemporalDetector(detector).fit(training, validation)
            matrix = temporal.transitions.transition_matrix_
            row_entropy = -(matrix * np.log(matrix)).sum(axis=1)
            return float(row_entropy.mean())

        rtos_entropy = transition_entropy(lambda s: rtos_config(seed=s))
        linux_entropy = transition_entropy(lambda s: PlatformConfig(seed=s))
        assert rtos_entropy <= linux_entropy + 0.15

"""GeminiSystem end-to-end failure/recovery scenarios."""

import pytest

from repro.cluster import P4D_24XLARGE
from repro.core.recovery import RetrievalSource
from repro.core.system import GeminiConfig, GeminiSystem
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.training import GPT2_100B
from repro.units import HOUR, MINUTE


def run_scenario(events, duration=2 * HOUR, num_machines=16, **config_kwargs):
    system = GeminiSystem(
        GPT2_100B,
        P4D_24XLARGE,
        num_machines,
        config=GeminiConfig(**config_kwargs),
    )
    if events:
        TraceFailureInjector(system.sim, system.cluster, events, system.inject_failure)
    result = system.run(duration)
    return system, result


class TestHappyPath:
    def test_failure_free_training_is_efficient(self):
        _system, result = run_scenario([], duration=2 * HOUR)
        assert result.effective_ratio > 0.99
        assert result.final_iteration == pytest.approx(
            2 * HOUR / result.iteration_time, abs=2
        )

    def test_per_iteration_checkpoints_commit(self):
        system, result = run_scenario([], duration=10 * 63.0)
        for rank in range(16):
            for storer in system.policy.placement.storers_of(rank):
                assert system.policy.stores[storer].latest_complete(rank) == result.final_iteration

    def test_persistent_checkpoint_every_3h(self):
        _system, result = run_scenario([], duration=3.6 * HOUR)
        assert result.persistent_checkpoints == 1

    def test_reduced_checkpoint_frequency(self):
        system, result = run_scenario(
            [], duration=20 * 63.0, checkpoint_interval_iterations=5
        )
        committed = system.policy.stores[0].latest_complete(0)
        assert committed % 5 == 0


class TestSoftwareFailure:
    def test_recovers_from_local_cpu(self):
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.SOFTWARE, [3])]
        )
        assert len(result.recoveries) == 1
        record = result.recoveries[0]
        assert record.source is RetrievalSource.LOCAL_CPU
        assert record.from_cpu_memory

    def test_total_overhead_about_7_minutes(self):
        # Section 7.3: ~7 min for software failures.
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.SOFTWARE, [3])]
        )
        overhead = result.recoveries[0].total_overhead
        assert 6 * MINUTE <= overhead <= 8.5 * MINUTE

    def test_rollback_to_latest_committed_iteration(self):
        system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.SOFTWARE, [3])]
        )
        record = result.recoveries[0]
        # Failure at t=1000 lands in iteration 17; ckpt 16 is complete.
        assert record.rollback_iteration == int(1000.0 // system.iteration_time)

    def test_training_resumes_after_recovery(self):
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.SOFTWARE, [3])], duration=2 * HOUR
        )
        lost = result.recoveries[0].total_overhead + 100
        expected_iterations = (2 * HOUR - lost) / result.iteration_time
        assert result.final_iteration >= expected_iterations - 2


class TestHardwareFailure:
    def test_single_failure_fetches_from_peer(self):
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])]
        )
        record = result.recoveries[0]
        assert record.source is RetrievalSource.REMOTE_CPU
        assert record.from_cpu_memory
        phases = record.phase_durations()
        assert phases["retrieval"] < 3.0  # "less than three seconds"
        assert 4 * MINUTE <= phases["replacement"] <= 7 * MINUTE

    def test_total_overhead_about_12_minutes(self):
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])]
        )
        overhead = result.recoveries[0].total_overhead
        assert 10 * MINUTE <= overhead <= 14 * MINUTE

    def test_standby_machines_shrink_replacement(self):
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])], num_standby=2
        )
        record = result.recoveries[0]
        assert record.phase_durations()["replacement"] < MINUTE
        assert record.total_overhead < 9 * MINUTE

    def test_replacement_machine_rejoins_cluster(self):
        system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])]
        )
        machine = system.cluster.machine(3)
        assert machine.is_healthy
        assert system.policy.stores[3].valid
        # The rejoined machine resumed committing checkpoints.
        assert system.policy.stores[3].latest_complete(3) == result.final_iteration

    def test_cross_group_double_failure_stays_on_cpu_path(self):
        _system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [1, 2])]
        )
        record = result.recoveries[0]
        assert record.from_cpu_memory
        assert record.rollback_iteration > 0

    def test_group_wipe_degrades_to_persistent(self):
        system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [2, 3])], duration=3 * HOUR
        )
        record = result.recoveries[0]
        assert not record.from_cpu_memory
        assert record.source is RetrievalSource.PERSISTENT
        # Rolls back to the (stale) persistent checkpoint: iteration 0 here.
        assert record.rollback_iteration == 0

    def test_root_machine_failure_recovers(self):
        system, result = run_scenario(
            [FailureEvent(1000.0, FailureType.HARDWARE, [0])]
        )
        assert len(result.recoveries) == 1
        assert system.leader_rank is not None


class TestRepeatedFailures:
    def test_two_sequential_failures_both_recovered(self):
        _system, result = run_scenario(
            [
                FailureEvent(1000.0, FailureType.SOFTWARE, [3]),
                FailureEvent(4000.0, FailureType.SOFTWARE, [5]),
            ],
            duration=3 * HOUR,
        )
        assert len(result.recoveries) == 2

    def test_failure_during_recovery_handled(self):
        _system, result = run_scenario(
            [
                FailureEvent(1000.0, FailureType.SOFTWARE, [3]),
                FailureEvent(1100.0, FailureType.SOFTWARE, [5]),
            ],
            duration=3 * HOUR,
        )
        assert result.recoveries  # at least one pass
        # Training keeps making progress afterwards.
        assert result.final_iteration > 50

    def test_effective_ratio_degrades_gracefully(self):
        _system, clean = run_scenario([], duration=2 * HOUR)
        _system, faulty = run_scenario(
            [FailureEvent(1000.0, FailureType.SOFTWARE, [3])], duration=2 * HOUR
        )
        assert faulty.effective_ratio < clean.effective_ratio
        assert faulty.effective_ratio > 0.85


class TestConfigValidation:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GeminiConfig(num_replicas=0)
        with pytest.raises(ValueError):
            GeminiConfig(checkpoint_interval_iterations=0)
        with pytest.raises(ValueError):
            GeminiConfig(persistent_interval=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            # 0 used to build and then never finish run(): every beat
            # re-armed a zero-delay timer
            ({"heartbeat_interval": 0}, "heartbeat_interval"),
            # negative used to fail only at run time ("negative timeout")
            ({"heartbeat_interval": -5.0}, "heartbeat_interval"),
            # outside lease_ttl > 2 x heartbeat, which the same-instant
            # expiry-before-scan order rests on
            ({"lease_ttl": 8.0, "heartbeat_interval": 5.0}, "lease_ttl"),
            ({"lease_ttl": 10.0}, "lease_ttl"),
        ],
    )
    def test_invalid_detection_settings(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            GeminiConfig(**kwargs)

    def test_detection_settings_on_the_bound(self):
        GeminiConfig(lease_ttl=10.5, heartbeat_interval=5.0)
        GeminiConfig(lease_ttl=3.0, heartbeat_interval=1.0)

    def test_invalid_duration(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 8)
        with pytest.raises(ValueError):
            system.run(0)

    def test_checkpoint_buffers_must_fit_cpu_memory(self):
        # GPT-2 100B over 4 machines: 301 GB shard x 2 buffers x 2 replicas
        # exceeds a p4d's 1152 GB of CPU memory.
        with pytest.raises(MemoryError):
            GeminiSystem(GPT2_100B, P4D_24XLARGE, 4)

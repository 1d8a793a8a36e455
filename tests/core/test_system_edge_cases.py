"""GeminiSystem edge cases: cascading failures, mid-recovery failures."""

import gc

import pytest

from repro.baselines import BaselineSystem
from repro.cluster import Machine, P4D_24XLARGE
from repro.core.system import GeminiConfig, GeminiSystem
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.training import GPT2_100B
from repro.units import HOUR, MINUTE


class TestMidRecoveryFailures:
    def test_peer_dies_during_replacement_window(self):
        """The retrieval peer fails while the first machine is being
        replaced; the recovery loop re-plans and still converges."""
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        # Rank 3's group peer is rank 2; kill 3, then kill 2 during the
        # replacement window (detection 15 s + ASG 4-7 min after t=1000).
        TraceFailureInjector(
            system.sim, system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [3]),
                FailureEvent(1000.0 + 2 * MINUTE, FailureType.HARDWARE, [2]),
            ],
            system.inject_failure,
        )
        result = system.run(4 * HOUR)
        assert result.recoveries  # converged rather than deadlocked
        # Everything is healthy and training resumed.
        assert all(machine.is_healthy for machine in system.cluster)
        assert result.final_iteration > 20

    def test_cascade_of_software_failures(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        events = [
            FailureEvent(1000.0 + index * 30.0, FailureType.SOFTWARE, [index])
            for index in range(4)
        ]
        TraceFailureInjector(system.sim, system.cluster, events, system.inject_failure)
        result = system.run(3 * HOUR)
        assert all(machine.is_healthy for machine in system.cluster)
        assert result.final_iteration > 50

    def test_whole_group_lost_then_second_group_lost(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        TraceFailureInjector(
            system.sim, system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [0, 1]),   # group wipe
                FailureEvent(1 * HOUR, FailureType.HARDWARE, [4, 5]),  # another
            ],
            system.inject_failure,
        )
        result = system.run(4 * HOUR)
        assert len(result.recoveries) >= 2
        assert all(not record.from_cpu_memory or record.rollback_iteration > 0
                   for record in result.recoveries)
        assert all(machine.is_healthy for machine in system.cluster)


class TestDroppedMidRecovery:
    def test_one_full_collection_frees_the_system(self):
        """Closing the unfinished recovery of a dropped system schedules
        nothing, so no part of the system is resurrected by the collector
        and kept alive until a second full collection."""

        def live_machines():
            return sum(isinstance(o, Machine) for o in gc.get_objects())

        gc.collect()
        gc.collect()
        before = live_machines()
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16, config=GeminiConfig(use_agents=False)
        )
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
            system.inject_failure,
        )
        system.run(1000.0 + 2 * MINUTE)
        assert system.recovery_active
        del system
        gc.collect()
        assert live_machines() == before

    def test_run_closes_the_recovery_the_horizon_cut_off(self):
        """The close lands at the horizon, inside ``run``, whenever the
        collector later frees the system; the flag still says the run
        ended mid-recovery."""
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16, config=GeminiConfig(use_agents=False)
        )
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
            system.inject_failure,
        )
        closed_at = []
        recover = system.policy.recover

        def watched(detected):
            try:
                yield from recover(detected)
            except GeneratorExit:
                closed_at.append(system.sim.now)
                raise

        system.policy.recover = watched
        system.run(1000.0 + 2 * MINUTE)
        assert closed_at == [1000.0 + 2 * MINUTE]
        assert system.recovery_active
        assert not system.recoveries


class TestLightweightMode:
    def test_group_wipe_in_lightweight_mode(self):
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16,
            config=GeminiConfig(use_agents=False),
        )
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(1000.0, FailureType.HARDWARE, [2, 3])],
            system.inject_failure,
        )
        result = system.run(3 * HOUR)
        assert len(result.recoveries) == 1
        assert not result.recoveries[0].from_cpu_memory

    def test_lightweight_mode_has_no_agents(self):
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16,
            config=GeminiConfig(use_agents=False),
        )
        assert not system.detector.use_agents
        assert not system.detector.root_agents
        assert system.leader_rank is None

    def test_concurrent_detections_coalesce(self):
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16,
            config=GeminiConfig(use_agents=False, num_standby=2),
        )
        TraceFailureInjector(
            system.sim, system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [3]),
                FailureEvent(1001.0, FailureType.HARDWARE, [8]),
            ],
            system.inject_failure,
        )
        result = system.run(2 * HOUR)
        # Both handled; the second detection folds into the active
        # recovery's re-plan loop rather than racing it.
        assert all(machine.is_healthy for machine in system.cluster)
        assert result.final_iteration > 20


class TestSimultaneousFailures:
    @pytest.mark.parametrize("use_agents", [True, False])
    @pytest.mark.parametrize(
        "first, second",
        [
            (FailureType.SOFTWARE, FailureType.SOFTWARE),
            (FailureType.HARDWARE, FailureType.SOFTWARE),
            (FailureType.HARDWARE, FailureType.HARDWARE),
        ],
    )
    def test_two_failures_at_one_instant_share_one_recovery(
        self, first, second, use_agents
    ):
        """The first failure schedules the training abort; the second,
        delivered at the same instant, must not try to trigger it again."""
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16, config=GeminiConfig(use_agents=use_agents)
        )
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(1000.0, first, [3]), FailureEvent(1000.0, second, [8])],
            system.inject_failure,
        )
        result = system.run(2 * HOUR)
        (record,) = result.recoveries
        assert sorted(record.failed_ranks) == [3, 8]
        assert all(machine.is_healthy for machine in system.cluster)

    @pytest.mark.parametrize("policy", ["strawman", "highfreq"])
    def test_baseline_detection_covers_both_failures(self, policy):
        """The fixed-delay detector records the ranks down at the failure
        instant, so the baselines' first pass restores both ranks."""
        system = BaselineSystem(GPT2_100B, P4D_24XLARGE, 16, policy=policy)
        TraceFailureInjector(
            system.sim, system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [3]),
                FailureEvent(1000.0, FailureType.SOFTWARE, [8]),
            ],
            system.inject_failure,
        )
        (record,) = system.run(2 * HOUR).recoveries
        assert record.failed_ranks == [3, 8]
        assert record.failure_time == 1000.0


class TestClockTypes:
    def test_remote_retrieval_keeps_clock_a_python_float(self):
        """Fabric finish times must reach the simulated clock, the
        recovery record and the trace as plain floats, not a float
        subclass (hence ``type``, not ``isinstance``)."""
        from repro.core.kernel import KernelListener
        from repro.core.recovery import RetrievalSource
        from repro.trace import TraceKind

        class ClockProbe(KernelListener):
            def __init__(self):
                self.clock_types = []

            def on_recovery_complete(self, record):
                self.clock_types.append(type(system.sim.now))

        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16, config=GeminiConfig(num_standby=1)
        )
        probe = ClockProbe()
        system.add_listener(probe)
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
            system.inject_failure,
        )
        result = system.run(HOUR)
        (record,) = result.recoveries
        assert record.source is RetrievalSource.REMOTE_CPU
        assert probe.clock_types == [float]
        assert type(record.retrieval_done_at) is float
        assert type(record.resumed_at) is float
        resume = system.trace.last(TraceKind.RESUME)
        assert type(resume.time) is float
        assert type(resume.detail["overhead"]) is float

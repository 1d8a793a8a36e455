"""Regression tests for yield-point races surfaced by the RACE lint.

Each test reproduces the hazardous interleaving with an injected
failure: a hardware loss or a rollback landing *inside* a durable-tier
upload window (plan/act split — RACE001/RACE003), a recovery coroutine dying
mid-flight (torn guard-flag write — RACE004), and a policy retuning its
persistent interval at runtime (stale cached interval — RACE001).
"""

import pytest

from repro.cluster import P4D_24XLARGE
from repro.baselines.system import BaselineSystem
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.core.system import GeminiSystem
from repro.experiments import create_policy
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.trace import TraceKind
from repro.training import GPT2_100B
from repro.units import HOUR


def _window(system):
    """(serialization, transfer) seconds of one persistent upload."""
    save = system.cost_model.serialization.save_time(
        system.spec.checkpoint_bytes_per_machine
    )
    transfer = (
        system.spec.checkpoint_bytes_total / system.persistent.aggregate_bandwidth
    )
    return save, transfer


class TestTornUploadWindow:
    """A failure between snapshot and publish must abandon the upload
    (pre-fix: the stale shards were published as a durable checkpoint
    describing a state the job had already lost)."""

    def test_gemini_tick_aborts_when_machine_dies_mid_transfer(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        save, transfer = _window(system)
        tick = system.policy.persistent_interval
        # First tick at 3h; kill a machine 30s before the publish point.
        t_fail = tick + save + transfer - 30.0
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(t_fail, FailureType.HARDWARE, [2])],
            system.inject_failure,
        )
        system.run(tick + save + transfer + 60.0)
        assert system.persistent_checkpoints == 0
        aborted = system.trace.of_kind(TraceKind.PERSISTENT_ABORTED)
        assert len(aborted) == 1
        # Only the seed checkpoint (iteration 0) is durable.
        assert system.persistent.latest_complete() == 0

    def test_gemini_tick_publishes_again_after_recovery(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        save, transfer = _window(system)
        tick = system.policy.persistent_interval
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(tick + save + transfer - 30.0,
                          FailureType.HARDWARE, [2])],
            system.inject_failure,
        )
        # Past the second tick: the loop must have survived the abort.
        system.run(2 * tick + save + transfer + 600.0)
        assert system.persistent_checkpoints == 1
        assert system.persistent.latest_complete() is not None

    def test_user_checkpoint_reports_torn_window_as_none(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        system.sim.run(until=10 * system.iteration_time + 1)
        save, transfer = _window(system)
        done = system.request_persistent_checkpoint()
        t_fail = system.sim.now + save + transfer - 30.0
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(t_fail, FailureType.HARDWARE, [4])],
            system.inject_failure,
        )
        snapshot = system.sim.run_until_event(done, limit=2 * HOUR)
        assert snapshot is None
        assert system.persistent.latest_complete() == 0
        aborted = system.trace.of_kind(TraceKind.PERSISTENT_ABORTED)
        assert len(aborted) == 1 and aborted[0].detail.get("on_demand")

    def test_strawman_upload_aborts_and_releases_gate(self):
        system = BaselineSystem(GPT2_100B, P4D_24XLARGE, 16)
        timings = system.policy._timings
        save, transfer = _window(system)
        # Upload of iteration `interval` starts after its stall finishes.
        t_upload = (
            timings.interval_iterations * system.iteration_time
            + timings.stall_per_checkpoint
        )
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(t_upload + transfer - 30.0,
                          FailureType.HARDWARE, [7])],
            system.inject_failure,
        )
        system.run(t_upload + transfer + 60.0)
        assert system.persisted_iteration == 0
        assert len(system.trace.of_kind(TraceKind.PERSISTENT_ABORTED)) == 1
        # Fix for the wedgeable flag: the gate is released even though
        # the upload never published, so later uploads can still start.
        assert system.policy._upload_in_flight is False

    def test_tiercheck_ssd_upload_aborts_when_machine_dies_mid_write(self):
        system, policy = _tiercheck()
        window = _ssd_window(system, policy)
        # First SSD tick at ssd_interval; kill a machine 30 s before publish.
        end = policy.ssd_interval + window
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(end - 30.0, FailureType.HARDWARE, [3])],
            system.inject_failure,
        )
        system.run(end + 1.0)
        [aborted] = system.trace.of_kind(TraceKind.SSD_ABORTED)
        assert aborted.time == pytest.approx(end)
        assert aborted.detail["iteration"] > 0
        assert system.trace.of_kind(TraceKind.SSD_CHECKPOINT) == []
        assert policy.ssd_checkpoints == 0
        # Only the seed checkpoint (iteration 0) is in the pool.
        assert policy.ssd.latest_complete() == 0

    def test_rollback_behind_snapshot_abandons_upload(self):
        # A replica group dies before the second SSD tick; the tick still
        # snapshots the pre-failure iteration, and the recovery rolls back
        # to the first SSD snapshot and resumes inside the write window.
        # At the publish point every machine is healthy again and no
        # recovery runs: only the rollback check can catch the tear.
        system, policy = _tiercheck()
        window = _ssd_window(system, policy)
        second_tick = 2 * policy.ssd_interval + window
        group = sorted(policy.placement.replica_sets[0])
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(second_tick - 330.0, FailureType.HARDWARE, group)],
            system.inject_failure,
        )
        result = system.run(second_tick + window + 1.0)
        [first] = system.trace.of_kind(TraceKind.SSD_CHECKPOINT)
        [aborted] = system.trace.of_kind(TraceKind.SSD_ABORTED)
        [record] = result.recoveries
        assert second_tick < record.resumed_at < aborted.time
        assert record.rollback_iteration == first.detail["iteration"]
        assert record.rollback_iteration < aborted.detail["iteration"]
        assert system.upload_window_intact()
        assert policy.ssd.latest_complete() == first.detail["iteration"]


def _tiercheck():
    policy = create_policy("tiercheck")
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, policy, seed=0, num_standby=4
    )
    return system, policy


def _ssd_window(system, policy):
    """Seconds from an SSD tick to its publish point."""
    save = system.cost_model.serialization.save_time(
        system.spec.checkpoint_bytes_per_machine
    )
    return save + policy.ssd.write_time(system.spec.checkpoint_bytes_total)


class TestRecoveryCrashReleasesFlag:
    """``_run_recovery`` must clear ``_recovery_active`` and fire
    ``_recovery_done`` even when the policy's recover() raises
    (pre-fix: the flag wedged and no recovery could ever start again)."""

    def test_failed_recovery_does_not_wedge_the_kernel(self):
        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        original = system.policy.recover
        state = {"calls": 0}

        def flaky(trigger):
            state["calls"] += 1
            if state["calls"] == 1:
                yield system.sim.timeout(5.0)
                raise RuntimeError("recovery died mid-flight")
            yield from original(trigger)

        system.policy.recover = flaky
        TraceFailureInjector(
            system.sim, system.cluster,
            [
                FailureEvent(1000.0, FailureType.SOFTWARE, [3]),
                FailureEvent(5000.0, FailureType.SOFTWARE, [5]),
            ],
            system.inject_failure,
        )
        with pytest.raises(RuntimeError, match="recovery died"):
            system.sim.run(until=4000.0)
        # The finally block released the flag and woke the waiters.
        assert system._recovery_active is False
        assert system._recovery_done.triggered
        frozen_at = system.committed_iteration

        # The sim resumes: the second failure must start a *fresh*
        # recovery through the real policy, and training must advance.
        # system.run settles the open macro window before reporting.
        system.run(9000.0 - system.sim.now)
        assert state["calls"] == 2
        assert len(system.recoveries) == 1
        assert system.committed_iteration > frozen_at + 10


class TestAdaptivePersistentInterval:
    """The persistent loop re-reads the policy interval every round
    (pre-fix: the boot-time value was cached for the life of the job)."""

    def test_interval_retune_takes_effect_next_round(self):
        class AdaptivePolicy(GeminiPolicy):
            def __init__(self):
                super().__init__(GeminiConfig(use_agents=False))
                self.tick_times = []
                self.interval_override = None

            @property
            def persistent_interval(self):
                return self.interval_override or self.config.persistent_interval

            def on_persistent_tick(self):
                self.tick_times.append(self.kernel.sim.now)
                self.interval_override = HOUR
                return super().on_persistent_tick()

        from repro.core.kernel import SimulatedTrainingSystem

        policy = AdaptivePolicy()
        system = SimulatedTrainingSystem(
            GPT2_100B, P4D_24XLARGE, 16, policy
        )
        save, transfer = _window(system)
        # First tick at 3h retunes to 1h; the next must follow one hour
        # (plus the upload in flight) later, not three.
        system.run(3 * HOUR + (save + transfer) + HOUR + 600.0)
        assert len(policy.tick_times) == 2
        assert policy.tick_times[1] - policy.tick_times[0] < 2 * HOUR

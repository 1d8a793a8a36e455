"""TierCheck's middle tier, measured on the kernel: wipe a whole replica
group after the SSD loop has landed a snapshot and recovery must come
from the SSD pool — newer than persistent storage, audited clean."""

import pytest

from repro.chaos.auditor import RecoveryInvariantAuditor
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.recovery import RetrievalSource
from repro.experiments import create_policy
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.training import GPT2_100B
from repro.units import HOUR, MINUTE


def build(policy, events):
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, policy, seed=0, num_standby=4
    )
    auditor = RecoveryInvariantAuditor(system)
    TraceFailureInjector(system.sim, system.cluster, events, system.inject_failure)
    return system, auditor


def test_group_loss_recovers_from_ssd_tier():
    policy = create_policy("tiercheck")
    # Kill both members of the first replica group well after the first
    # SSD snapshot (cadence 15 min) but far before the first persistent
    # checkpoint: the SSD pool is the freshest surviving tier.
    system, auditor = build(
        policy,
        [FailureEvent(20 * MINUTE, FailureType.HARDWARE, list(policy_group(policy)))],
    )
    result = system.run(1 * HOUR)
    assert auditor.violations == []
    assert len(result.recoveries) == 1
    record = result.recoveries[0]
    assert record.source is RetrievalSource.SSD
    assert not record.from_cpu_memory
    # The SSD snapshot is minutes old, not the seed checkpoint: the one
    # cadence tick before the failure landed iterations through ~900 s.
    snapshot_iteration = int((15 * MINUTE) / system.iteration_time)
    assert record.rollback_iteration == snapshot_iteration


def policy_group(policy):
    # The first replica group is only known after configure(); probe a
    # throwaway bound copy to learn it, then rebuild for the real run.
    probe = create_policy("tiercheck")
    SimulatedTrainingSystem(GPT2_100B, P4D_24XLARGE, 16, probe, seed=0)
    return sorted(probe.placement.replica_sets[0])


def test_single_failure_still_recovers_from_cpu():
    policy = create_policy("tiercheck")
    system, auditor = build(
        policy, [FailureEvent(20 * MINUTE, FailureType.HARDWARE, [3])]
    )
    result = system.run(1 * HOUR)
    assert auditor.violations == []
    assert result.recoveries[0].from_cpu_memory


def test_ssd_loop_lands_snapshots():
    policy = create_policy("tiercheck")
    system, _ = build(policy, [])
    system.run(1 * HOUR)
    # 4 cadence ticks in an hour; at least the early ones must land.
    assert policy.ssd_checkpoints >= 3
    assert policy.ssd.latest_complete() > 0


def test_tiercheck_stays_coalescable():
    policy = create_policy("tiercheck")
    assert policy.coalesce_iterations(10) > 0
    assert policy.gradient_phase_fraction is None


def test_tiercheck_rejects_bad_interval():
    with pytest.raises(ValueError, match="ssd_interval"):
        create_policy("tiercheck", ssd_interval=0.0)

"""Checkmate's bound, measured on the kernel: a failure landing after the
gradient phase of the in-flight iteration rolls back to that iteration —
one ahead of GEMINI, which only commits at the boundary."""

import pytest

from repro.chaos.auditor import RecoveryInvariantAuditor
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.experiments import create_policy
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.trace import TraceKind
from repro.training import GPT2_100B
from repro.units import DAY, HOUR


def run_with_failure_at(policy_name, fail_time, failure_type=FailureType.SOFTWARE):
    policy = create_policy(policy_name, use_agents=False)
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, policy, seed=0, num_standby=2
    )
    auditor = RecoveryInvariantAuditor(system)
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(fail_time, failure_type, [3])],
        system.inject_failure,
    )
    result = system.run(1 * HOUR)
    assert auditor.violations == []
    assert len(result.recoveries) == 1
    return system, result.recoveries[0]


def test_rollback_reaches_the_inflight_iteration():
    probe = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, create_policy("checkmate"), seed=0
    )
    t_iter = probe.iteration_time
    k = 16
    # Land between the gradient phase (75% of the step) and the boundary:
    # checkmate has already committed iteration k+1 there, GEMINI has not.
    fail_time = (k + 0.9) * t_iter
    _, checkmate = run_with_failure_at("checkmate", fail_time)
    _, gemini = run_with_failure_at("gemini", fail_time)
    assert checkmate.rollback_iteration == gemini.rollback_iteration + 1


@pytest.mark.parametrize("failure_type", [FailureType.SOFTWARE, FailureType.HARDWARE])
def test_rollback_loses_at_most_one_iteration(failure_type):
    probe = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, create_policy("checkmate"), seed=0
    )
    t_iter = probe.iteration_time
    for offset in (0.2, 0.5, 0.8):
        fail_time = (20 + offset) * t_iter
        _, record = run_with_failure_at("checkmate", fail_time, failure_type)
        iterations_started = int(fail_time / t_iter) + 1
        assert record.rollback_iteration >= iterations_started - 1


def test_checkmate_coalesces():
    """A failure-free day fires O(windows) events, not O(iterations): one
    macro window carries every iteration's gradient point."""
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, create_policy("checkmate"), seed=0
    )
    result = system.run(1 * DAY)
    assert result.final_iteration == 1387
    assert system.trace.count(TraceKind.CHECKPOINT_COMMIT) == 1387
    assert system.sim.events_processed == 23


def gradient_point(system, k):
    """Iteration ``k``'s gradient point, by the kernel's float chain from
    ``t = 0``: ``g = t + head``, then ``t = g + (step - head)``."""
    step = system.iteration_time
    head = step * system.policy.gradient_phase_fraction
    t = 0.0
    for _ in range(k):
        g = t + head
        t = g + (step - head)
    return g


@pytest.mark.parametrize("macro_ticks", [True, False])
@pytest.mark.parametrize(
    "failures",
    [
        [(FailureType.SOFTWARE, [3])],
        [(FailureType.HARDWARE, [3])],
        [(FailureType.SOFTWARE, [3]), (FailureType.HARDWARE, [8])],
    ],
    ids=["software", "hardware", "double"],
)
def test_failure_at_the_gradient_point_counts_first(failures, macro_ticks):
    """A failure at exactly g^k beats iteration k's gradient commit, as a
    failure at exactly an iteration end beats that iteration: nothing
    commits at the failure instant and the job rolls back to k - 1."""
    k = 20
    policy = create_policy("checkmate", use_agents=False)
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, policy, seed=0, num_standby=2,
        macro_ticks=macro_ticks,
    )
    g = gradient_point(system, k)
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(g, kind, ranks) for kind, ranks in failures],
        system.inject_failure,
    )
    result = system.run(1 * HOUR)
    commits = system.trace.of_kind(TraceKind.CHECKPOINT_COMMIT)
    assert [c for c in commits if c.time == g] == []
    assert max(c.detail["iteration"] for c in commits if c.time < g) == k - 1
    assert len(result.recoveries) == 1
    assert result.recoveries[0].rollback_iteration == k - 1


def test_commit_cadence_is_gemini_at_the_gradient_point():
    """With a commit cadence, Checkmate commits GEMINI's iterations, each
    at its gradient point, whether the window is coalesced or not."""

    def commits(macro_ticks):
        policy = create_policy("checkmate", checkpoint_interval_iterations=4)
        system = SimulatedTrainingSystem(
            GPT2_100B, P4D_24XLARGE, 16, policy, seed=0, macro_ticks=macro_ticks
        )
        system.run(1 * HOUR)
        return [
            (c.time, c.detail["iteration"])
            for c in system.trace.of_kind(TraceKind.CHECKPOINT_COMMIT)
        ]

    fast = commits(True)
    assert fast == commits(False)
    probe = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, create_policy("checkmate"), seed=0
    )
    assert fast == [(gradient_point(probe, k), k) for k in range(4, 57, 4)]

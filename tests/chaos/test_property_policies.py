"""Property-style guarantees over every registered policy.

Two campaign-level promises, parametrized over ``available_policies()``
so newly registered policies inherit them automatically:

1. Under a randomized correlated-failure campaign, every policy's
   recoveries satisfy every Section 6 invariant (zero violations).
2. The auditor is a pure observer: attaching one changes no simulation
   bytes (trace and results are identical with and without it).
"""

import pytest

from repro.chaos import (
    ChaosScenario,
    CorrelatedFailureInjector,
    FaultDomainTopology,
    RecoveryInvariantAuditor,
)
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.experiments import available_policies, create_policy
from repro.sim import RandomStreams
from repro.training import GPT2_100B
from repro.units import DAY

POLICIES = available_policies()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model", ["correlated", "adversarial"])
def test_every_policy_survives_chaos_with_zero_violations(policy, model):
    scenario = ChaosScenario(
        name=f"prop-{policy}-{model}",
        policy=policy,
        failure_model=model,
        num_machines=16,
        failures_per_day=24.0,
        horizon_days=0.1,
        seeds=(0, 1),
    )
    row = scenario.run()
    assert row["total_failures"] > 0, "campaign produced no failures"
    assert row["total_recoveries"] > 0
    assert row["audited_plans"] > 0
    assert row["violation_count"] == 0, row["violations"]


@pytest.mark.parametrize("policy", POLICIES)
def test_auditor_changes_no_simulation_bytes(policy):
    def run(with_auditor):
        system = SimulatedTrainingSystem(
            GPT2_100B,
            P4D_24XLARGE,
            8,
            create_policy(policy, use_agents=False),
            seed=0,
            num_standby=2,
        )
        auditor = RecoveryInvariantAuditor(system) if with_auditor else None
        CorrelatedFailureInjector(
            system.sim,
            system.cluster,
            system.inject_failure,
            events_per_day=24.0,
            topology=FaultDomainTopology(((0, 1), (2, 3), (4, 5), (6, 7))),
            rng=RandomStreams(0),
            horizon=0.1 * DAY,
        )
        result = system.run(0.1 * DAY)
        if auditor is not None:
            assert auditor.audited_recoveries == len(result.recoveries)
        return system.trace.to_jsonl(), result

    audited_trace, audited = run(with_auditor=True)
    plain_trace, plain = run(with_auditor=False)
    assert audited_trace == plain_trace
    assert audited.final_iteration == plain.final_iteration
    assert audited.effective_ratio == plain.effective_ratio
    assert [
        (r.failure_time, r.resumed_at, r.rollback_iteration, r.from_cpu_memory)
        for r in audited.recoveries
    ] == [
        (r.failure_time, r.resumed_at, r.rollback_iteration, r.from_cpu_memory)
        for r in plain.recoveries
    ]

"""Recovery invariant auditor: clean runs audit clean, liars get caught."""

import dataclasses

import pytest

from repro.chaos import (
    InvariantViolationError,
    RecoveryInvariantAuditor,
)
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.units import HOUR

FAILURES = [
    FailureEvent(1000.0, FailureType.HARDWARE, [3]),
    FailureEvent(2 * HOUR, FailureType.SOFTWARE, [5]),
]


def attach_failures(system):
    TraceFailureInjector(
        system.sim, system.cluster, list(FAILURES), system.inject_failure
    )


def make_liar(policy, tamper):
    """Make the policy's planner return tampered plans (pre-audit)."""
    original = policy.plan_recovery

    def lying_plan(failure_type, failed_ranks):
        plan = original(failure_type, failed_ranks)
        tamper(plan)
        return plan

    policy.plan_recovery = lying_plan


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ["gemini", "strawman", "highfreq"])
    def test_recoveries_audit_clean(self, build_system, policy):
        system = build_system(policy)
        auditor = RecoveryInvariantAuditor(system)
        attach_failures(system)
        result = system.run(4 * HOUR)
        assert len(result.recoveries) == 2
        assert auditor.ok, [v.to_dict() for v in auditor.violations]
        assert auditor.audited_failures == 2
        assert auditor.audited_recoveries == 2
        assert auditor.audited_plans >= 2
        summary = auditor.summary()
        assert summary["failures"] == 2
        assert summary["recoveries"] == 2
        assert summary["violations"] == []

    def test_quiet_run_audits_nothing(self, build_system):
        system = build_system("gemini")
        auditor = RecoveryInvariantAuditor(system)
        system.run(1 * HOUR)
        assert auditor.ok
        assert auditor.audited_failures == 0
        assert auditor.audited_recoveries == 0


class TestViolationDetection:
    def test_failure_not_applied_is_reported(self, build_system):
        system = build_system("gemini")
        auditor = RecoveryInvariantAuditor(system)
        # Deliver the listener notification without downing the machine.
        auditor.on_failure_injected(
            FailureEvent(0.0, FailureType.SOFTWARE, [0])
        )
        assert not auditor.ok
        assert auditor.violations[0].invariant == "failure-applied"

    def test_rollback_lie_is_caught(self, build_system):
        # The planner claims an earlier rollback than the latest
        # completely replicated step: I1 must fire.
        system = build_system("gemini")

        def tamper(plan):
            if plan.rollback_iteration and plan.rollback_iteration > 1:
                plan.rollback_iteration -= 1

        make_liar(system.policy, tamper)
        auditor = RecoveryInvariantAuditor(system)
        attach_failures(system)
        system.run(4 * HOUR)
        assert not auditor.ok
        assert any(
            v.invariant == "rollback-latest-replicated"
            for v in auditor.violations
        )

    def test_tier_lie_is_caught(self, build_system):
        # The record and the plan agree with each other (both tampered
        # paths would diverge at execution), so lie about the flag only
        # at plan time: I3 compares against store contents and fires.
        system = build_system("gemini")
        seen = {}

        def tamper(plan):
            if plan.from_cpu_memory:
                plan.from_cpu_memory = False
                seen["lied"] = True

        make_liar(system.policy, tamper)
        auditor = RecoveryInvariantAuditor(system)
        attach_failures(system)
        system.run(4 * HOUR)
        assert seen.get("lied")
        assert any(
            v.invariant == "tier-selection" for v in auditor.violations
        )

    def test_forbidden_source_is_caught(self, build_system):
        # Redirect one remote retrieval at a machine in the failed set.
        system = build_system("gemini")
        seen = {}

        def tamper(plan):
            for retrieval in plan.retrievals:
                if retrieval.peer is not None and plan.failed_ranks:
                    object.__setattr__(
                        retrieval, "peer", plan.failed_ranks[0]
                    )
                    seen["lied"] = True
                    return

        make_liar(system.policy, tamper)
        auditor = RecoveryInvariantAuditor(system)
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
            system.inject_failure,
        )
        with pytest.raises(Exception):
            # The tampered plan reads a dead machine; whether or not the
            # kernel survives executing it, the audit must flag it.
            system.run(2 * HOUR)
        assert seen.get("lied")
        assert any(
            v.invariant == "retrieval-sources" for v in auditor.violations
        )

    def test_strict_mode_raises_on_first_violation(self, build_system):
        system = build_system("gemini")

        def tamper(plan):
            if plan.rollback_iteration and plan.rollback_iteration > 1:
                plan.rollback_iteration -= 1

        make_liar(system.policy, tamper)
        RecoveryInvariantAuditor(system, strict=True)
        attach_failures(system)
        with pytest.raises(InvariantViolationError):
            system.run(4 * HOUR)


def build_agent_system(num_machines=16):
    """Agent-mode GEMINI: detection by lease expiry and root scans."""
    from repro.cluster import P4D_24XLARGE
    from repro.core.kernel import SimulatedTrainingSystem
    from repro.experiments import create_policy
    from repro.training import GPT2_100B

    return SimulatedTrainingSystem(
        GPT2_100B,
        P4D_24XLARGE,
        num_machines,
        create_policy("gemini", use_agents=True),
        num_standby=2,
    )


def shift_detection(policy, seconds):
    """Make the policy's recoveries report ``detected_at`` off by ``seconds``."""
    original = policy.recover

    def lying_recover(detected):
        return original(
            dataclasses.replace(detected, detected_at=detected.detected_at + seconds)
        )

    policy.recover = lying_recover


class TestDetectionWindow:
    def test_agent_detections_audit_clean(self):
        system = build_agent_system()
        auditor = RecoveryInvariantAuditor(system)
        failures = [
            FailureEvent(1003.0, FailureType.HARDWARE, [3]),
            FailureEvent(1 * HOUR + 1.5, FailureType.SOFTWARE, [5]),
            FailureEvent(2 * HOUR, FailureType.HARDWARE, [system.detector.leader_rank]),
        ]
        TraceFailureInjector(
            system.sim, system.cluster, list(failures), system.inject_failure
        )
        result = system.run(3 * HOUR)
        assert len(result.recoveries) == 3
        assert auditor.ok, [v.to_dict() for v in auditor.violations]
        delays = [
            record.detected_at - event.time
            for record, event in zip(result.recoveries, failures)
        ]
        assert all(10.0 <= delay <= 20.0 for delay in delays), delays

    def test_failure_during_recovery_is_exempt(self):
        # The second failure lands mid-recovery; the recovery loop
        # re-detects it on its own schedule, which I8 does not judge.
        system = build_agent_system()
        auditor = RecoveryInvariantAuditor(system)
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [3]),
                FailureEvent(1100.0, FailureType.SOFTWARE, [5]),
            ],
            system.inject_failure,
        )
        system.run(1 * HOUR)
        assert auditor.ok, [v.to_dict() for v in auditor.violations]

    @pytest.mark.parametrize("shift", [-8.0, 30.0])
    def test_lying_detected_at_is_caught(self, shift):
        system = build_agent_system()
        shift_detection(system.policy, shift)
        auditor = RecoveryInvariantAuditor(system)
        attach_failures(system)
        system.run(4 * HOUR)
        found = [v for v in auditor.violations if v.invariant == "detection-window"]
        assert len(found) == 2, [v.to_dict() for v in auditor.violations]

    def test_fixed_delay_detection_is_out_of_scope(self, build_system):
        system = build_system("gemini")
        shift_detection(system.policy, 30.0)
        auditor = RecoveryInvariantAuditor(system)
        attach_failures(system)
        system.run(4 * HOUR)
        assert not [v for v in auditor.violations if v.invariant == "detection-window"]

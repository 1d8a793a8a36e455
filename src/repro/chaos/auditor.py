"""The recovery invariant auditor: machine-checked Section 6 guarantees.

Attaches to a :class:`repro.core.kernel.SimulatedTrainingSystem` as a
read-only :class:`~repro.core.kernel.KernelListener` (plus a wrapper
around the policy's ``plan_recovery``) and asserts, for every failure
the system recovers from, the paper's safety/liveness promises:

``rollback-latest-replicated`` (I1, Section 6)
    The recovered step equals the latest *completely replicated*
    checkpoint step, re-derived independently from the placement, the
    actual CPU-memory store contents, and the persistent store.
``phase-tiling`` (I2, Figure 14)
    The recovery record's phase intervals tile ``[failure_time,
    resumed_at]`` exactly — wasted time is fully accounted, phase by
    phase.
``tier-selection`` (I3, Theorem 1 / Section 6)
    CPU-memory recovery is used *iff* a complete replica survives for
    every rank; and whenever the store-level view says CPU recovery is
    possible after hardware loss, the placement-level predicate
    (``Placement.recoverable``, the quantity ``core/probability.py``
    computes the odds of) must agree.
``retrieval-sources`` (I4, Section 6)
    No checkpoint is read from a machine that is failed or being
    replaced; every local/remote read targets a store that actually
    holds the shard; the plan covers every rank exactly once.
``cluster-restored`` (I5)
    When a recovery completes, every machine is healthy again (cluster
    size restored) unless a *newer* failure — injected after the one
    being recovered — explains the hole.
``job-state`` (I6)
    Training resumes at the rollback point: ``committed_iteration ==
    rollback`` and ``current_iteration == rollback + 1``.
``detection-window`` (I8, Section 3.2)
    Agent mode (``use_agents=True``), for every policy.  A failure
    that strikes a quiet cluster (no recovery in flight, every other
    machine healthy, no earlier failure still undetected) is detected by
    lease expiry: the next recovery's ``detected_at`` lies within
    ``lease_ttl ± heartbeat_interval`` of the failure.  The last
    heartbeat landed at most one interval before the failure, and the
    first root scan at or after expiry at most one interval after it.
    (I7 is reserved for the simulated-time ledger.)

The auditor never schedules simulator events, draws randomness, or
mutates system state, so an attached auditor changes no simulation
bytes (pinned by a golden-parity test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.machine import MachineState
from repro.core.kernel import KernelListener, SimulatedTrainingSystem
from repro.core.recovery import RecoveryPlan, RecoveryRecord, RetrievalSource
from repro.failures.types import FailureEvent, FailureType

__all__ = [
    "InvariantViolation",
    "InvariantViolationError",
    "RecoveryInvariantAuditor",
]

#: tolerance for phase-boundary float comparisons (sums of sim times).
_TOL = 1e-6


class InvariantViolationError(AssertionError):
    """Raised in ``strict`` mode on the first violated invariant."""


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant, timestamped on the simulated clock."""

    time: float
    invariant: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "invariant": self.invariant,
            "message": self.message,
        }


class RecoveryInvariantAuditor(KernelListener):
    """Checks every recovery against the Section 6 guarantees.

    Parameters
    ----------
    system:
        The kernel to audit; the auditor registers itself as a listener
        and wraps ``system.policy.plan_recovery`` (reads only — the
        wrapped planner's result is passed through untouched).
    strict:
        Raise :class:`InvariantViolationError` on the first violation
        instead of collecting (campaigns collect; tests may prefer
        strict).
    """

    def __init__(self, system: SimulatedTrainingSystem, *, strict: bool = False):
        self.system = system
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self.audited_failures = 0
        self.audited_plans = 0
        self.audited_recoveries = 0
        self._initial_size = system.cluster.size
        self._failure_log: List[FailureEvent] = []
        self._last_plan: Optional[RecoveryPlan] = None
        #: I8's (earliest, latest) detection delay, or None out of scope.
        self.detection_window: Optional[Tuple[float, float]] = None
        detector = system.detector
        if detector.use_agents:
            self.detection_window = (
                detector.lease_ttl - detector.heartbeat_interval,
                detector.lease_ttl + detector.heartbeat_interval,
            )
        #: time of the failure I8 waits to see detected, if any.
        self._undetected_failure_at: Optional[float] = None
        self._maybe_down: Set[int] = set()
        system.add_listener(self)
        self._wrap_planner(system.policy)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _wrap_planner(self, policy) -> None:
        original = policy.plan_recovery

        def audited_plan(failure_type, failed_ranks):
            plan = original(failure_type, failed_ranks)
            self._audit_plan(failure_type, list(failed_ranks), plan)
            return plan

        # Instance attribute shadows the bound method for this policy only.
        policy.plan_recovery = audited_plan

    def _report(self, invariant: str, message: str) -> None:
        violation = InvariantViolation(
            time=self.system.sim.now, invariant=invariant, message=message
        )
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolationError(f"[{invariant}] {message}")

    # -------------------------------------------------------------- listeners

    def on_failure_injected(self, event: FailureEvent) -> None:
        self.audited_failures += 1
        self._failure_log.append(event)
        self._note_detection_candidate(event)
        for rank in event.ranks:
            machine = self.system.cluster.machine(rank)
            if event.failure_type is FailureType.HARDWARE:
                down = not machine.hardware_alive
            else:
                down = not machine.is_healthy
            if not down:
                self._report(
                    "failure-applied",
                    f"rank {rank} delivered a {event.failure_type.value} "
                    f"failure at t={event.time} but is still up "
                    f"({machine.state.value})",
                )

    def on_recovery_complete(self, record: RecoveryRecord) -> None:
        self.audited_recoveries += 1
        self._audit_phase_tiling(record)
        self._audit_record_matches_plan(record)
        self._audit_job_state(record)
        self._audit_cluster_restored(record)
        self._audit_detection_window(record)

    # ------------------------------------------------------------- plan audits

    def _audit_plan(
        self, failure_type: FailureType, failed_ranks: List[int], plan: RecoveryPlan
    ) -> None:
        self.audited_plans += 1
        self._last_plan = plan
        expected_cpu, expected_rollback = self._expected_tier(
            failure_type, failed_ranks
        )
        if plan.from_cpu_memory != expected_cpu:
            self._report(
                "tier-selection",
                f"plan for {failure_type.value} failure of {failed_ranks} chose "
                f"from_cpu_memory={plan.from_cpu_memory}, but store contents say "
                f"{expected_cpu}",
            )
        if plan.rollback_iteration != expected_rollback:
            self._report(
                "rollback-latest-replicated",
                f"plan rolls back to {plan.rollback_iteration}, but the latest "
                f"completely replicated step is {expected_rollback}",
            )
        self._audit_retrievals(plan)

    def _expected_tier(
        self, failure_type: FailureType, failed_ranks: List[int]
    ) -> Tuple[bool, Optional[int]]:
        """Independently re-derive (from_cpu_memory, rollback) per Section 6."""
        kernel = self.system
        policy = kernel.policy
        n = kernel.cluster.size
        persistent_latest = kernel.persistent.latest_complete()
        placement = getattr(policy, "placement", None)
        stores = getattr(policy, "stores", None)
        if placement is None or stores is None:
            # Remote-storage baseline: always the non-CPU fallback tier.
            rollback = self._fallback_rollback(persistent_latest)
            return False, rollback if rollback is not None else 0

        if failure_type is FailureType.SOFTWARE:
            own = [stores[rank].latest_complete(rank) for rank in range(n)]
            if all(iteration is not None for iteration in own):
                return True, min(own)
            return False, self._fallback_rollback(persistent_latest)

        failed = set(failed_ranks)
        iterations: List[int] = []
        for rank in range(n):
            if rank not in failed:
                own = stores[rank].latest_complete(rank)
                if own is None:
                    # A surviving rank must use its local replica; if that
                    # is gone (corruption), Section 6 falls back.
                    return False, self._fallback_rollback(persistent_latest)
                iterations.append(own)
                continue
            # Failed rank: its shard must come from the lowest-ranked
            # surviving peer that holds a complete copy (Section 6).
            peers = [
                peer
                for peer in sorted(placement.storers_of(rank))
                if peer != rank
                and peer not in failed
                and stores[peer].latest_complete(rank) is not None
            ]
            if not peers:
                return False, self._fallback_rollback(persistent_latest)
            iterations.append(stores[peers[0]].latest_complete(rank))
        # Store-level feasibility must imply placement-level
        # recoverability (the predicate core/probability.py computes the
        # odds of); flag the inconsistency if not.
        if not placement.recoverable(sorted(failed)):
            self._report(
                "tier-selection",
                "store contents allow CPU-memory recovery but "
                f"Placement.recoverable({sorted(failed)}) is False — "
                "placement math and store state disagree",
            )
        return True, min(iterations)

    def _fallback_rollback(self, persistent_latest: Optional[int]) -> Optional[int]:
        """Best non-CPU tier when CPU-memory recovery is infeasible.

        Policies that expose an ``ssd`` attribute (TierCheck-style tiered
        checkpointing) must prefer the SSD tier whenever it holds a
        complete checkpoint at least as new as the persistent tier's;
        everyone else falls straight back to persistent.
        """
        ssd = getattr(self.system.policy, "ssd", None)
        if ssd is not None:
            ssd_latest = ssd.latest_complete()
            if ssd_latest is not None and (
                persistent_latest is None or ssd_latest >= persistent_latest
            ):
                return ssd_latest
        return persistent_latest

    def _audit_retrievals(self, plan: RecoveryPlan) -> None:
        kernel = self.system
        stores = getattr(kernel.policy, "stores", None)
        failed = set(plan.failed_ranks)
        # Both tiers are read once per plan; nothing writes them mid-audit.
        persistent_latest = kernel.persistent.latest_complete()
        ssd = getattr(kernel.policy, "ssd", None)
        ssd_latest = ssd.latest_complete() if ssd is not None else None
        covered = sorted(retrieval.rank for retrieval in plan.retrievals)
        if covered != list(range(kernel.cluster.size)):
            self._report(
                "retrieval-sources",
                f"plan does not cover every rank exactly once: {covered}",
            )
        for retrieval in plan.retrievals:
            source = retrieval.source
            if source is RetrievalSource.PERSISTENT:
                if persistent_latest is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {retrieval.rank} reads persistent storage but no "
                        "complete checkpoint exists there",
                    )
                continue
            if source is RetrievalSource.SSD:
                if ssd is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {retrieval.rank} reads the SSD tier but the "
                        "policy has no SSD store",
                    )
                elif ssd_latest is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {retrieval.rank} reads the SSD tier but no "
                        "complete checkpoint exists there",
                    )
                continue
            if stores is None:
                self._report(
                    "retrieval-sources",
                    f"rank {retrieval.rank} plans a CPU-memory read but the "
                    "policy has no CPU-memory stores",
                )
                continue
            if source is RetrievalSource.LOCAL_CPU:
                reader, holder = retrieval.rank, retrieval.rank
            else:
                holder = retrieval.peer if retrieval.peer is not None else -1
                reader = retrieval.rank
                if retrieval.peer is None:
                    self._report(
                        "retrieval-sources",
                        f"rank {reader} plans a remote-CPU read with no peer",
                    )
                    continue
                if holder in failed:
                    self._report(
                        "retrieval-sources",
                        f"rank {reader} reads rank {holder}, which is in the "
                        f"failed set {sorted(failed)}",
                    )
            machine = kernel.cluster.machine(holder)
            if machine.state in (MachineState.FAILED, MachineState.REPLACING):
                self._report(
                    "retrieval-sources",
                    f"rank {reader} reads CPU memory of rank {holder}, whose "
                    f"machine is {machine.state.value}",
                )
            if stores[holder].latest_complete(retrieval.rank) is None:
                self._report(
                    "retrieval-sources",
                    f"rank {reader} reads rank {retrieval.rank}'s shard from "
                    f"rank {holder}, whose store has no complete copy",
                )

    # ----------------------------------------------------------- record audits

    def _audit_phase_tiling(self, record: RecoveryRecord) -> None:
        intervals = record.phase_intervals()
        cursor = record.failure_time
        for phase, (start, end) in intervals.items():
            if abs(start - cursor) > _TOL:
                self._report(
                    "phase-tiling",
                    f"phase {phase!r} starts at {start}, expected {cursor} "
                    "(phases must tile with no gap or overlap)",
                )
            if end < start - _TOL:
                self._report(
                    "phase-tiling", f"phase {phase!r} has negative duration"
                )
            cursor = end
        if abs(cursor - record.resumed_at) > _TOL:
            self._report(
                "phase-tiling",
                f"phases end at {cursor}, but the recovery resumed at "
                f"{record.resumed_at}",
            )
        total = sum(end - start for start, end in intervals.values())
        if abs(total - record.total_overhead) > _TOL:
            self._report(
                "phase-tiling",
                f"phase durations sum to {total}, but total_overhead is "
                f"{record.total_overhead}",
            )

    def _audit_record_matches_plan(self, record: RecoveryRecord) -> None:
        plan = self._last_plan
        if plan is None:
            self._report(
                "rollback-latest-replicated",
                "recovery completed without any audited plan",
            )
            return
        if record.rollback_iteration != plan.rollback_iteration:
            self._report(
                "rollback-latest-replicated",
                f"record rolls back to {record.rollback_iteration}, but the "
                f"audited plan said {plan.rollback_iteration}",
            )
        if record.from_cpu_memory != plan.from_cpu_memory:
            self._report(
                "tier-selection",
                f"record says from_cpu_memory={record.from_cpu_memory}, plan "
                f"said {plan.from_cpu_memory}",
            )
        if record.source is RetrievalSource.PERSISTENT and record.from_cpu_memory:
            self._report(
                "tier-selection",
                "record reports a persistent retrieval marked as CPU-memory",
            )
        if record.source is RetrievalSource.SSD and record.from_cpu_memory:
            self._report(
                "tier-selection",
                "record reports an SSD retrieval marked as CPU-memory",
            )

    def _audit_job_state(self, record: RecoveryRecord) -> None:
        kernel = self.system
        rollback = record.rollback_iteration
        if rollback is None:
            return
        if kernel.committed_iteration != rollback:
            self._report(
                "job-state",
                f"committed_iteration is {kernel.committed_iteration} after "
                f"recovery, expected the rollback point {rollback}",
            )
        if kernel.current_iteration != rollback + 1:
            self._report(
                "job-state",
                f"current_iteration is {kernel.current_iteration} after "
                f"recovery, expected {rollback + 1}",
            )

    def _audit_cluster_restored(self, record: RecoveryRecord) -> None:
        kernel = self.system
        if kernel.cluster.size != self._initial_size:
            self._report(
                "cluster-restored",
                f"cluster size is {kernel.cluster.size}, expected "
                f"{self._initial_size}",
            )
        unhealthy = [
            machine.rank
            for machine in kernel.cluster.machines()
            if not machine.is_healthy
        ]
        if not unhealthy:
            return
        explained = set()
        for event in self._failure_log:
            if event.time > record.failure_time:
                explained.update(event.ranks)
        unexplained = [rank for rank in unhealthy if rank not in explained]
        if unexplained:
            self._report(
                "cluster-restored",
                f"ranks {unexplained} are still down after the recovery of "
                f"{record.failed_ranks} with no newer failure explaining it",
            )

    def _note_detection_candidate(self, event: FailureEvent) -> None:
        """Start I8's clock if ``event`` struck a quiet cluster.

        Listeners run after the failure is applied, so "every machine was
        healthy" is judged from ``_maybe_down``: the ranks down when the
        last recovery completed plus every rank struck since.  It is
        empty only when no recovery is needed and none is pending.
        """
        if self.detection_window is None:
            return
        if not self._maybe_down and not self.system.recovery_active:
            self._undetected_failure_at = self.system.sim.now
        self._maybe_down.update(event.ranks)

    def _audit_detection_window(self, record: RecoveryRecord) -> None:
        """Judge the pending quiet-cluster failure, if any, then restart
        ``_maybe_down`` from the machines this recovery left down."""
        if self.detection_window is None:
            return
        self._maybe_down = {
            machine.rank
            for machine in self.system.cluster.machines()
            if not machine.is_healthy
        }
        failed_at = self._undetected_failure_at
        if failed_at is None:
            return
        self._undetected_failure_at = None
        earliest, latest = self.detection_window
        delay = record.detected_at - failed_at
        if not earliest - _TOL <= delay <= latest + _TOL:
            self._report(
                "detection-window",
                f"failure at t={failed_at} detected at t={record.detected_at} "
                f"({delay:g} s later), outside the lease window "
                f"[{earliest:g}, {latest:g}] s",
            )

    # ---------------------------------------------------------------- summary

    def summary(self) -> Dict[str, Any]:
        """JSON-stable audit counters + violations."""
        return {
            "failures": self.audited_failures,
            "plans": self.audited_plans,
            "recoveries": self.audited_recoveries,
            "violations": [violation.to_dict() for violation in self.violations],
        }

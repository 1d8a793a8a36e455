"""GEMINI's checkpoint policy: CPU-memory replicas, agents, fast recovery.

This is the paper's system expressed as a :class:`CheckpointPolicy` for
the simulation kernel.  It owns everything GEMINI-specific: the shard
placement (Algorithm 1), per-machine CPU-memory stores, the worker/root
agents over the KV store (or the lightweight fixed-delay detection
stand-in), the training fabric used for recovery transfers, and the
tiered recovery planner/executor of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.agents import ROOT_ELECTION_KEY, DetectedFailure, RootAgent, WorkerAgent
from repro.core.kernel import CheckpointPolicy
from repro.core.placement import Placement, PlacementStrategy, resolve_placement
from repro.core.recovery import (
    RecoveryCostModel,
    RecoveryPlan,
    RecoveryRecord,
    RetrievalSource,
    plan_recovery,
)
from repro.cluster.machine import MachineState
from repro.failures.types import FailureEvent, FailureType
from repro.kvstore import Election, KVStore
from repro.network.fabric import Fabric, TransferAborted
from repro.storage.cpu_memory import CPUCheckpointStore
from repro.trace import TraceKind
from repro.units import HOUR, gbps


@dataclass
class GeminiConfig:
    """Tunables of the full GEMINI system."""

    num_replicas: int = 2
    #: checkpoint to CPU memory every this many iterations (1 = optimal).
    checkpoint_interval_iterations: int = 1
    #: user-facing persistent checkpoints (BLOOM cadence).
    persistent_interval: float = 3 * HOUR
    persistent_bandwidth: float = gbps(20)
    num_standby: int = 0
    heartbeat_interval: float = 5.0
    lease_ttl: float = 15.0
    seed: int = 0
    cost_model: RecoveryCostModel = field(default_factory=RecoveryCostModel)
    #: True (the ``GeminiSystem`` default): every machine runs a worker
    #: agent (heartbeats under a TTL lease) and a root agent (health scans,
    #: a candidacy in the shared root election) over the KV store, so a
    #: failure is detected when its lease expires (§3.2).  That costs two
    #: timer events per machine per heartbeat interval plus a lease-expiry
    #: callback per lease every other interval, and it turns macro-tick
    #: coalescing off.  False: no agents; detection fires
    #: ``cost_model.detection_delay`` after the failure and training
    #: coalesces.  Sweeps, chaos campaigns and Monte Carlo runs default
    #: to False.
    use_agents: bool = True
    #: replica placement: "mixed" (paper Algorithm 1, the default),
    #: "group", "ring", or "topology" (fault-domain-interleaved mixed —
    #: groups span racks; falls back to mixed on flat clusters).
    placement_strategy: str = "mixed"

    def __post_init__(self):
        PlacementStrategy(self.placement_strategy)  # validate the name
        if self.num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {self.num_replicas}")
        if self.checkpoint_interval_iterations < 1:
            raise ValueError(
                "checkpoint_interval_iterations must be >= 1, "
                f"got {self.checkpoint_interval_iterations}"
            )
        if self.persistent_interval <= 0:
            raise ValueError(
                f"persistent_interval must be > 0, got {self.persistent_interval}"
            )


class GeminiPolicy(CheckpointPolicy):
    """Per-iteration checkpoints to CPU memory; tiered recovery."""

    name = "gemini"

    def __init__(
        self,
        config: Optional[GeminiConfig] = None,
        placement: Optional[Placement] = None,
    ):
        self.config = config or GeminiConfig()
        self._placement_arg = placement
        self.placement: Optional[Placement] = placement
        self.stores: Dict[int, CPUCheckpointStore] = {}
        self.worker_agents: Dict[int, WorkerAgent] = {}
        self.root_agents: Dict[int, RootAgent] = {}

    @property
    def persistent_interval(self) -> float:
        return self.config.persistent_interval

    # ------------------------------------------------------------------- setup

    def configure(self) -> None:
        self.placement = self._placement_arg or resolve_placement(
            self.config.placement_strategy,
            self.kernel.cluster.size,
            self.config.num_replicas,
            domains=self.kernel.cluster.fault_domains(),
        )

    def build(self) -> None:
        kernel = self.kernel
        self.kvstore = KVStore(kernel.sim)
        spec = kernel.cluster_spec
        topology = spec.build_topology() if spec is not None else None
        self.fabric = Fabric(kernel.sim, obs=kernel.obs, topology=topology)
        for machine in kernel.cluster:
            self.fabric.attach(
                machine.machine_id,
                machine.instance_type.network_bandwidth,
                position=machine.position,
            )

        # Hierarchical CPU-memory stores, populated per the placement.
        shard = kernel.spec.checkpoint_bytes_per_machine
        for machine in kernel.cluster:
            store = CPUCheckpointStore(machine, obs=kernel.obs)
            for owner in self.placement.hosted_by(machine.rank):
                store.host_shard(owner, shard)
            self.stores[machine.rank] = store

        # Agents (or the lightweight fixed-delay detection stand-in).
        if self.config.use_agents:
            self.root_election = Election(self.kvstore, ROOT_ELECTION_KEY)
            for machine in kernel.cluster:
                self._spawn_agents(machine.rank)

    def on_start(self) -> None:
        self.commit_checkpoint(0)

    def _spawn_agents(self, rank: int) -> None:
        kernel = self.kernel
        self.worker_agents[rank] = WorkerAgent(
            kernel.sim,
            self.kvstore,
            kernel.cluster,
            rank,
            heartbeat_interval=self.config.heartbeat_interval,
            lease_ttl=self.config.lease_ttl,
        )
        self.root_agents[rank] = RootAgent(
            kernel.sim,
            self.kvstore,
            kernel.cluster,
            rank,
            election=self.root_election,
            on_failure_detected=kernel.begin_recovery,
            scan_interval=self.config.heartbeat_interval,
            lease_ttl=self.config.lease_ttl,
        )

    @property
    def leader_rank(self) -> Optional[int]:
        for rank, agent in self.root_agents.items():
            if agent.is_leader:
                return rank
        return None

    # ------------------------------------------------------------------ training

    def on_iteration(self, finished: int) -> Iterator:
        if finished % self.config.checkpoint_interval_iterations == 0:
            self.commit_checkpoint(finished)
        return
        yield  # pragma: no cover - makes this a (empty) generator

    def coalesce_iterations(self, start: int) -> int:
        # With agents on, every heartbeat/lease exchange is a real event
        # the coalesced stretch would skip — keep full fidelity there.
        # Otherwise on_iteration never yields and commit_checkpoint is
        # exactly replayable, so offer the kernel's maximum; it re-plans
        # at every window boundary anyway.
        if self.config.use_agents:
            return 0
        return 4096

    def fast_forward(
        self,
        first: int,
        last: int,
        boundary_times: Sequence[float],
        assume_healthy: Tuple[int, ...] = (),
    ) -> None:
        interval = self.config.checkpoint_interval_iterations
        commits = [
            (iteration, boundary_times[iteration - first])
            for iteration in range(first, last + 1)
            if iteration % interval == 0
        ]
        for index, (iteration, at) in enumerate(commits):
            # Store slots are last-write-wins double buffers, so only the
            # batch's final commit has to touch them; every earlier commit
            # still records its trace/metric effects at its own boundary.
            self.commit_checkpoint(
                iteration,
                at=at,
                write_stores=index == len(commits) - 1,
                assume_healthy=assume_healthy,
            )

    def commit_checkpoint(
        self,
        iteration: int,
        *,
        at: Optional[float] = None,
        write_stores: bool = True,
        assume_healthy: Tuple[int, ...] = (),
    ) -> None:
        """Coarse-grain per-iteration checkpoint commit.

        The chunk-level simulation (interleave module) establishes that the
        traffic fits inside the iteration's idle spans; here we only apply
        the durable state change at the iteration boundary.  ``at``
        backdates the recorded commit time (macro-tick replay of a
        boundary the clock has already passed); ``assume_healthy`` ranks
        are treated as healthy storers even though the cluster already
        marks them down — their failure postdates the boundary being
        replayed (invalidated stores are still skipped: hardware loss
        destroys the replica retroactively, software failure does not).
        """
        kernel = self.kernel
        now = kernel.sim.now if at is None else at
        if write_stores:
            cluster = kernel.cluster
            for storer, store in self.stores.items():
                if not (cluster.machine(storer).is_healthy or storer in assume_healthy):
                    continue
                if store.valid:
                    store.commit_all(iteration)
        if iteration > 0:
            kernel.committed_iteration = iteration
            kernel.trace.record(
                now, TraceKind.CHECKPOINT_COMMIT, iteration=iteration
            )
            if kernel.obs.enabled:
                metrics = kernel.obs.metrics
                metrics.counter(
                    "repro_checkpoint_commits_total",
                    help="cluster-wide checkpoint commits (durable iterations)",
                ).inc()
                metrics.counter(
                    "repro_checkpoint_commit_bytes_total",
                    help="bytes made durable per cluster-wide commit",
                ).inc(
                    kernel.spec.checkpoint_bytes_total * self.config.num_replicas
                )
                if kernel._last_commit_at is not None:
                    metrics.histogram(
                        "repro_commit_interval_seconds",
                        help="time between consecutive checkpoint commits",
                    ).observe(now - kernel._last_commit_at)
                kernel._last_commit_at = now
                kernel.obs.tracer.instant(
                    "checkpoint.commit", track="checkpoint", iteration=iteration
                )

    # --------------------------------------------------------------- persistence

    def on_persistent_tick(self) -> Iterator:
        kernel = self.kernel
        serialization = kernel.cost_model.serialization
        snapshot = kernel.committed_iteration
        started_at = kernel.sim.now
        # Serialize from the CPU-memory replica (does not block training)
        yield kernel.sim.timeout(
            serialization.save_time(kernel.spec.checkpoint_bytes_per_machine)
        )
        transfer = (
            kernel.spec.checkpoint_bytes_total / kernel.persistent.aggregate_bandwidth
        )
        yield kernel.sim.timeout(transfer)
        # The snapshot was taken before the yields above; if the job
        # rolled back behind it or a machine died in the window, the
        # serialized bytes describe a state the cluster no longer has —
        # publishing them would commit a torn checkpoint.
        if kernel.committed_iteration < snapshot or not kernel.upload_window_intact():
            kernel.record_persistent_aborted(snapshot)
            return
        for rank in range(kernel.cluster.size):
            kernel.persistent.put_shard(rank, snapshot)
        kernel.persistent.prune(keep_latest=2)
        kernel.record_persistent_checkpoint(snapshot)
        # repro: allow[RACE005] started_at is the span start, by design
        kernel.emit_persistent_telemetry(snapshot, started_at)

    # ------------------------------------------------------------- failure intake

    def on_failure(self, event: FailureEvent) -> None:
        kernel = self.kernel
        for rank in event.ranks:
            machine = kernel.cluster.machine(rank)
            if machine.state == MachineState.FAILED:
                self.fabric.detach(machine.machine_id)

    def after_failure(self, event: FailureEvent) -> None:
        if self.config.use_agents:
            return  # agents' lease expiry drives detection ~15 s later
        kernel = self.kernel
        ranks = list(event.ranks)
        delay = kernel.cost_model.detection_delay
        kernel.sim.call_after(
            delay,
            lambda: kernel.begin_recovery(
                DetectedFailure(detected_at=kernel.sim.now, missing_ranks=ranks)
            ),
        )

    # ------------------------------------------------------------------ recovery

    def plan_recovery(self, failure_type, failed_ranks) -> RecoveryPlan:
        return plan_recovery(
            self.placement,
            self.stores,
            self.kernel.persistent,
            failure_type,
            failed_ranks,
        )

    def recover(self, detected: DetectedFailure) -> Iterator:
        kernel = self.kernel
        cost = kernel.cost_model
        initially_missing = list(detected.missing_ranks)
        while True:
            failed_hw = [
                m.rank
                for m in kernel.cluster.machines()
                if m.state in (MachineState.FAILED, MachineState.REPLACING)
            ]
            failed_sw = [
                m.rank
                for m in kernel.cluster.machines()
                if m.state == MachineState.PROCESS_DOWN
            ]
            if not failed_hw and not failed_sw:
                break
            failure_type = FailureType.HARDWARE if failed_hw else FailureType.SOFTWARE
            record = RecoveryRecord(
                failure_time=detected.detected_at - cost.detection_delay,
                failure_type=failure_type,
                failed_ranks=sorted(failed_hw + failed_sw),
                detected_at=detected.detected_at,
            )
            kernel.trace.record(
                kernel.sim.now,
                TraceKind.DETECTION,
                ranks=record.failed_ranks,
                failure_type=failure_type.value,
            )

            # Phase 1: replace hardware-failed machines (parallel).
            if failed_hw:
                yield kernel.replace_hardware(failed_hw)
                record.replacement_done_at = kernel.sim.now
                kernel.trace.record(
                    kernel.sim.now, TraceKind.REPLACEMENT, ranks=failed_hw
                )
                for rank in failed_hw:
                    machine = kernel.cluster.machine(rank)
                    if not machine.is_healthy:
                        # Failed *again* while the replacement barrier
                        # drained the other ranks (overlapping rack
                        # failures at fleet scale): don't attach a NIC or
                        # populate a store for a dead machine — the next
                        # pass of the recovery loop sees it in failed_hw
                        # and replaces it afresh.
                        continue
                    self.fabric.attach(
                        machine.machine_id,
                        machine.instance_type.network_bandwidth,
                        position=machine.position,
                    )
                    store = CPUCheckpointStore(machine, obs=kernel.obs)
                    for owner in self.placement.hosted_by(rank):
                        store.host_shard(
                            owner, kernel.spec.checkpoint_bytes_per_machine
                        )
                    self.stores[rank] = store

            # Phase 2: plan against the post-replacement store states.
            plan = self.plan_recovery(failure_type, sorted(failed_hw + failed_sw))
            record.rollback_iteration = plan.rollback_iteration
            record.from_cpu_memory = plan.from_cpu_memory
            sources = {r.source for r in plan.retrievals}
            # Slowest tier in the plan names the recovery (priority order;
            # SSD never appears for GEMINI itself, only tiered subclasses).
            for tier in (
                RetrievalSource.PERSISTENT,
                RetrievalSource.SSD,
                RetrievalSource.REMOTE_CPU,
            ):
                if tier in sources:
                    record.source = tier
                    break
            else:
                record.source = RetrievalSource.LOCAL_CPU

            # Phase 3: alive agents serialize their CPU-memory replicas so
            # the restarted processes can torch.load() them.
            if plan.from_cpu_memory:
                yield kernel.sim.timeout(
                    cost.serialization_time(kernel.spec, self.config.num_replicas)
                )
            record.serialization_done_at = kernel.sim.now
            kernel.trace.record(kernel.sim.now, TraceKind.SERIALIZATION)

            # Phase 4: retrieval.
            yield from self._execute_retrievals(plan, cost)
            record.retrieval_done_at = kernel.sim.now
            kernel.trace.record(
                kernel.sim.now, TraceKind.RETRIEVAL, source=record.source.value
            )

            # Phase 5: process restarts + warm-up.
            kernel.restart_down_processes(failed_sw)
            yield kernel.sim.timeout(cost.restart_warmup)
            record.resumed_at = kernel.sim.now

            # Re-seed stores/agents and roll back the job state.  The
            # rollback is applied *before* record_recovery so listeners
            # observe committed/current already reflecting the recovery
            # (trace order — ROLLBACK then RESUME — is unchanged).
            self._reconstitute_after(plan)
            if plan.rollback_iteration is not None:
                kernel.committed_iteration = plan.rollback_iteration
                kernel.current_iteration = plan.rollback_iteration + 1
                kernel.trace.record(
                    kernel.sim.now,
                    TraceKind.ROLLBACK,
                    iteration=plan.rollback_iteration,
                    from_cpu_memory=plan.from_cpu_memory,
                )
            kernel.record_recovery(record)
            kernel.emit_recovery_telemetry(record)
            for agent in self.root_agents.values():
                agent.mark_handled(record.failed_ranks)
            kernel.trace.record(
                kernel.sim.now,
                TraceKind.RESUME,
                overhead=round(record.total_overhead, 3),
            )
            # Loop again if new failures arrived during recovery.
            still_broken = [
                m.rank for m in kernel.cluster.machines() if not m.is_healthy
            ]
            if not still_broken:
                break
            detected = DetectedFailure(
                detected_at=kernel.sim.now + cost.detection_delay,
                missing_ranks=still_broken,
            )
            yield kernel.sim.timeout(cost.detection_delay)

        # Detection bookkeeping: the handled ranks become observable again
        # (their fresh agents heartbeat, or a later scan re-detects them).
        for agent in self.root_agents.values():
            agent.mark_handled(initially_missing)

    def _execute_retrievals(self, plan: RecoveryPlan, cost: RecoveryCostModel):
        """Run the retrieval phase: fabric flows for remote-CPU fetches,
        analytic timeouts for the persistent fallback."""
        kernel = self.kernel
        if not plan.from_cpu_memory:
            yield kernel.sim.timeout(
                cost.persistent_retrieval_time(
                    kernel.spec, kernel.persistent.aggregate_bandwidth
                )
            )
            return
        shard = kernel.spec.checkpoint_bytes_per_machine
        flows = []
        replaced = set()
        for retrieval in plan.retrievals:
            if retrieval.source is not RetrievalSource.REMOTE_CPU:
                continue
            src = kernel.cluster.machine(retrieval.peer).machine_id
            dst = kernel.cluster.machine(retrieval.rank).machine_id
            if not (self.fabric.has_machine(src) and self.fabric.has_machine(dst)):
                # An endpoint was hardware-failed between planning and
                # retrieval (e.g. during the serialization phase) and is
                # already detached; skip the flow — the outer recovery
                # loop sees the new failure and re-plans, same as a peer
                # dying mid-transfer (TransferAborted below).
                continue
            replaced.add(retrieval.rank)
            flows.append(self.fabric.transfer(src, dst, shard, tag="retrieval"))
        if flows:
            try:
                yield kernel.sim.all_of([flow.done for flow in flows])
            except TransferAborted:
                pass  # a peer died mid-retrieval; outer loop re-plans
        # Re-replication: a replacement machine must also re-host its
        # placement peers' shards (it is their remote replica again).  The
        # owners stream them from local copies AFTER the critical-path
        # retrieval, overlapping the restart warm-up in the background —
        # training resumes as soon as every rank has its *own* shard.
        for rank in replaced:
            for owner in self.placement.hosted_by(rank):
                if owner == rank or owner in replaced:
                    continue
                src = kernel.cluster.machine(owner).machine_id
                dst = kernel.cluster.machine(rank).machine_id
                if not (
                    self.fabric.has_machine(src) and self.fabric.has_machine(dst)
                ):
                    continue  # endpoint died since planning; re-plan handles it
                background = self.fabric.transfer(
                    src, dst, shard, tag="re-replication"
                )
                # Nobody awaits it; swallow an abort if an endpoint dies.
                background.done.callbacks.append(
                    lambda ev: ev._defuse() if ev._ok is False else None
                )

    def _reconstitute_after(self, plan: RecoveryPlan) -> None:
        """After recovery every healthy machine's hosted shards hold the
        rollback iteration (replacements received them; survivors kept
        theirs)."""
        kernel = self.kernel
        rollback = plan.rollback_iteration
        if rollback is None:
            return
        for store in self.stores.values():
            if store.valid:
                store.settle_at_rollback(rollback)
        # Respawn agents for every rank whose worker lease is gone.
        if not self.config.use_agents:
            return
        for rank in range(kernel.cluster.size):
            agent = self.worker_agents.get(rank)
            lease_dead = agent is None or agent.lease is None or not agent.lease.alive
            if lease_dead and kernel.cluster.machine(rank).is_healthy:
                self._spawn_agents(rank)

    # ------------------------------------------------------------------- analytic

    def timings(self, spec=None, plan=None):
        from repro.baselines.policies import gemini_policy

        spec, plan = self._workload(spec, plan)
        return gemini_policy(spec, plan, num_replicas=self.config.num_replicas)

    def expected_loss_per_failure(
        self, spec=None, plan=None, cost=None, replacement_delay=0.0
    ) -> float:
        """GEMINI's Equation 1: recovery serializes GPU state and retrieves
        from local CPU memory instead of pulling the model back through the
        persistent pipe, so the retrieval term is replaced by the
        serialization time."""
        from repro.baselines.policies import gemini_policy

        spec, plan = self._workload(spec, plan)
        cost = cost if cost is not None else self.config.cost_model
        timings = gemini_policy(
            spec, plan, num_replicas=self.config.num_replicas, retrieval="local_cpu"
        )
        lost_progress = timings.checkpoint_time + timings.checkpoint_interval / 2
        return (
            lost_progress
            + cost.detection_delay
            + replacement_delay
            + cost.serialization_time(spec, self.config.num_replicas)
            + cost.restart_warmup
        )

    def finalize(self, result) -> None:
        if self.kernel.obs.enabled:
            self.fabric.export_link_metrics()

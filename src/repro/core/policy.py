"""GEMINI's checkpoint policy: CPU-memory replicas and fast recovery.

This is the paper's system expressed as a :class:`CheckpointPolicy` for
the simulation kernel.  It owns everything GEMINI-specific: the shard
placement (Algorithm 1), per-machine CPU-memory stores, the training
fabric used for recovery transfers, the tiered recovery planner of
Section 6, and the recovery loop's GEMINI steps (provisioning a new
machine, serializing replicas, fabric retrievals, re-seeding stores).
The kernel detects failures (§3.2) and runs the loop;
:class:`GeminiConfig` picks the detector and its timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.kernel import CheckpointPolicy
from repro.core.placement import Placement, PlacementStrategy, resolve_placement
from repro.core.recovery import (
    RecoveryCostModel,
    RecoveryPlan,
    RetrievalSource,
    plan_recovery,
)
from repro.cluster.machine import MachineState
from repro.failures.types import FailureEvent
from repro.network.fabric import Fabric, TransferAborted
from repro.storage.cpu_memory import CPUCheckpointStore, StorePlane
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
    #: The kernel's detector.  True (the ``GeminiSystem`` default): the
    #: kernel runs a worker agent (heartbeats) and a root agent (scans, a
    #: root candidacy) on every machine, so a failure is detected at the
    #: first leader scan after its lease expires (§3.2).  Healthy beats
    #: and empty scans are analytic: agents add events only around
    #: failures and leader changes.  False: no agents; detection fires
    #: ``cost_model.detection_delay`` after the failure.  Sweeps and chaos
    #: campaigns default to False.
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
        if not self.heartbeat_interval > 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if not self.lease_ttl > 2 * self.heartbeat_interval:
            # Expiries order ahead of same-instant scans only under this
            # bound (docs/paper_to_code.md, "Agent plane").
            raise ValueError(
                f"lease_ttl must exceed 2 x heartbeat_interval "
                f"({2 * self.heartbeat_interval}), got {self.lease_ttl}"
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
        self.plane = StorePlane()

    @property
    def persistent_interval(self) -> float:
        return self.config.persistent_interval

    use_agents = property(lambda self: self.config.use_agents)
    heartbeat_interval = property(lambda self: self.config.heartbeat_interval)
    lease_ttl = property(lambda self: self.config.lease_ttl)

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
        spec = kernel.cluster_spec
        topology = spec.build_topology() if spec is not None else None
        self.fabric = Fabric(kernel.sim, obs=kernel.obs, topology=topology)
        #: one machine's checkpoint shard, the size of every hosted slot.
        self._shard_bytes = kernel.spec.checkpoint_bytes_per_machine
        for machine in kernel.cluster:
            self._provision(machine.rank)

    def on_start(self) -> None:
        self.commit_checkpoint(0)

    # ------------------------------------------------------------------ training

    def on_iteration(self, finished: int) -> Iterator:
        if finished % self.config.checkpoint_interval_iterations == 0:
            self.commit_checkpoint(finished)
        return
        yield  # pragma: no cover - makes this a (empty) generator

    def coalesce_iterations(self, start: int) -> int:
        # on_iteration never yields and commit_checkpoint is exactly
        # replayable, so offer the kernel's maximum; it re-plans at every
        # window boundary anyway.  Agents read no job state: a failure
        # closes the window before any lease can lapse.
        return 4096

    def fast_forward(
        self,
        first: int,
        last: int,
        boundary_times: Sequence[float],
        assume_healthy: Tuple[int, ...] = (),
    ) -> None:
        interval = self.config.checkpoint_interval_iterations
        # The replayed commits are the multiples of the interval in
        # [first, last]: start, start + interval, ..., final.
        start = first + (-first) % interval
        final = last - last % interval
        if start > final:
            return
        # Store slots are last-write-wins double buffers, so only the
        # final commit writes them; the commits before it are recorded as
        # one trace run with their metric effects at their own boundaries,
        # and the stores count the writes they stand for.  A store the
        # failure being replayed destroyed took every one of them, the
        # final one too.
        if self.kernel.obs.enabled:
            every = range(start, final + 1, interval)
            for storer, store in self.stores.items():
                if store.machine.is_healthy or storer in assume_healthy:
                    store.count_commits(every[:-1] if store.valid else every)
        if final > start:
            self._replay_commits(
                start,
                final,
                interval,
                boundary_times[start - first:final - first:interval],
            )
        self.commit_checkpoint(
            final, at=boundary_times[final - first], assume_healthy=assume_healthy
        )

    def _replay_commits(
        self, start: int, stop: int, interval: int, times: Sequence[float]
    ) -> None:
        """Record the commits of ``start, start + interval, ...`` below
        ``stop`` at ``times``, writing no store: one trace run, and with
        observability on each commit's metric effects in order."""
        kernel = self.kernel
        kernel.trace.record_run(
            TraceKind.CHECKPOINT_COMMIT, "iteration", start, interval, times
        )
        if kernel.obs.enabled:
            for iteration, at in zip(range(start, stop, interval), times):
                self._observe_commit(iteration, at)

    def commit_checkpoint(
        self,
        iteration: int,
        *,
        at: Optional[float] = None,
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
        # After the freeze every clean store is a storer this commit
        # writes, so raising the watermark writes all of them.  A valid
        # store's machine still holds its rank: replacement needs the old
        # hardware dead, which invalidates the store.
        self._freeze_down(assume_healthy)
        plane = self.plane
        if kernel.obs.enabled:
            for store in self.stores.values():
                if store.clean:
                    store.count_commits((iteration,))
        plane.advance(iteration)
        for storer, store in list(plane.diverged.items()):
            if store.valid and (store.machine.is_healthy or storer in assume_healthy):
                store.commit_all(iteration)
                store.rejoin()
        if iteration > 0:
            kernel.committed_iteration = iteration
            kernel.trace.record(
                now, TraceKind.CHECKPOINT_COMMIT, iteration=iteration
            )
            if kernel.obs.enabled:
                self._observe_commit(iteration, now)

    def _observe_commit(self, iteration: int, at: float) -> None:
        """The metric effects of one cluster-wide commit at ``at``."""
        kernel = self.kernel
        metrics = kernel.obs.metrics
        metrics.counter(
            "repro_checkpoint_commits_total",
            help="cluster-wide checkpoint commits (durable iterations)",
        ).inc()
        metrics.counter(
            "repro_checkpoint_commit_bytes_total",
            help="bytes made durable per cluster-wide commit",
        ).inc(kernel.spec.checkpoint_bytes_total * self.config.num_replicas)
        if kernel._last_commit_at is not None:
            metrics.histogram(
                "repro_commit_interval_seconds",
                help="time between consecutive checkpoint commits",
            ).observe(at - kernel._last_commit_at)
        kernel._last_commit_at = at
        kernel.obs.tracer.instant(
            "checkpoint.commit", time=at, track="checkpoint", iteration=iteration
        )

    def _freeze_down(self, assume_healthy: Tuple[int, ...] = ()) -> None:
        """Diverge the clean stores of down ranks at the watermark.

        Runs before every step that reads or moves the watermark (commit,
        rollback settle, plan): a store whose machine is down must keep
        the iteration it held when it went down.  ``assume_healthy``
        ranks are still storers of the commit being replayed, unless
        their store is already invalid.
        """
        stores = self.stores
        for rank in self.kernel.cluster.unhealthy_ranks():
            store = stores[rank]
            if store.clean and not (rank in assume_healthy and store.valid):
                store.diverge()

    # --------------------------------------------------------------- persistence

    def on_persistent_tick(self) -> Iterator:
        kernel = self.kernel
        started_at = kernel.sim.now
        snapshot, published = yield from kernel.upload_checkpoint(kernel.persistent)
        if not published:
            kernel.record_persistent_aborted(snapshot)
            return
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

    # ------------------------------------------------------------------ recovery

    def plan_recovery(self, failure_type, failed_ranks) -> RecoveryPlan:
        # A survivor whose hardware died since the failed set was taken
        # (during the replacement barrier) must not read as clean.
        self._freeze_down()
        return plan_recovery(
            self.placement,
            self.stores,
            self.kernel.persistent,
            failure_type,
            failed_ranks,
            plane=self.plane,
        )

    def _provision(self, rank: int) -> None:
        # The machine's NIC on the fabric, and its CPU-memory store
        # hosting the shards the placement assigns it.
        kernel = self.kernel
        machine = kernel.cluster.machine(rank)
        self.fabric.attach(
            machine.machine_id,
            machine.instance_type.network_bandwidth,
            position=machine.position,
        )
        store = CPUCheckpointStore(machine, obs=kernel.obs, plane=self.plane)
        store.host_shards(self.placement.hosted_by(rank), self._shard_bytes)
        self.stores[rank] = store

    def _serialize_replicas(self) -> Iterator:
        # Alive agents torch.save() their CPU-memory replicas so the
        # restarted processes can torch.load() them.
        kernel = self.kernel
        yield kernel.sim.timeout(
            kernel.cost_model.serialization_time(kernel.spec, self.config.num_replicas)
        )

    def _execute_retrievals(self, plan: RecoveryPlan, cost: RecoveryCostModel):
        """Fabric flows for remote-CPU fetches; the persistent fallback is
        the base class's."""
        if not plan.from_cpu_memory:
            yield from super()._execute_retrievals(plan, cost)
            return
        kernel = self.kernel
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
        rollback = plan.rollback_iteration
        if rollback is None:
            return
        # Every clean store is valid after the freeze and takes the
        # settle through the watermark.
        self._freeze_down()
        self.plane.advance(rollback)
        for store in list(self.plane.diverged.values()):
            if store.valid:
                store.settle_at_rollback(rollback)
                store.rejoin()

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

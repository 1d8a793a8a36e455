"""TierCheck: tiered CPU -> SSD -> remote checkpointing.

TierCheck (arXiv 2605.17821) inserts a pooled NVMe tier between the
in-memory replicas and remote persistent storage.  The CPU tier commits
every iteration (GEMINI-style); the SSD tier snapshots on its own cadence
through a policy-owned checkpoint loop; the remote tier keeps the
low-frequency user checkpoints.  Recovery walks the tiers fastest-first:
CPU memory when a complete replica survives everywhere, otherwise the SSD
pool when it holds a checkpoint at least as new as persistent storage,
and only then the 20 Gbps persistent pipe.

The SSD loop uploads through the kernel's one durable-tier writer
(:meth:`~repro.core.kernel.SimulatedTrainingSystem.upload_checkpoint`),
the same guarded upload the persistent tier uses: snapshot the committed
iteration, serialize + write as timeouts, and abandon the publish when
the upload window tears (a failure or rollback landed mid-write).
``on_iteration`` stays GEMINI's pure commit, so macro-tick coalescing
remains legal; the SSD loop is an independent process the window never
has to skip.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.baselines.policies import PolicyTimings
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.core.recovery import (
    RecoveryCostModel,
    RecoveryPlan,
    RetrievalSource,
    uniform_retrievals,
)
from repro.storage.serialization import SerializationModel
from repro.storage.ssd import (
    DEFAULT_SSD_BANDWIDTH,
    DEFAULT_SSD_READ_LATENCY,
    DEFAULT_SSD_WRITE_LATENCY,
    SSDStore,
)
from repro.trace import TraceKind
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan
from repro.units import MINUTE

__all__ = ["DEFAULT_SSD_INTERVAL", "TierCheckPolicy", "tiercheck_policy"]

#: default SSD snapshot cadence — two orders of magnitude more frequent
#: than the 3-hour persistent cadence, far cheaper per checkpoint.
DEFAULT_SSD_INTERVAL = 15 * MINUTE


def tiercheck_policy(
    spec: ShardingSpec,
    plan: IterationPlan,
    num_replicas: int = 2,
    ssd_bandwidth: float = DEFAULT_SSD_BANDWIDTH,
    ssd_read_latency: float = DEFAULT_SSD_READ_LATENCY,
    serialization: SerializationModel = SerializationModel(),
) -> PolicyTimings:
    """Analytic profile of the *primary* (CPU) tier, with the SSD pool as
    the modeled recovery fallback: per-iteration commits, no stall, and a
    retrieval priced at the SSD tier (the tier that distinguishes
    TierCheck from GEMINI when CPU recovery fails)."""
    t_iter = plan.iteration_time
    ssd_retrieval = (
        ssd_read_latency
        + spec.checkpoint_bytes_total / ssd_bandwidth
        + serialization.load_time(spec.checkpoint_bytes_per_machine)
    )
    return PolicyTimings(
        name="tiercheck",
        checkpoint_time=t_iter,
        checkpoint_interval=t_iter,
        retrieval_time=ssd_retrieval,
        stall_per_checkpoint=0.0,
        iteration_time=t_iter,
    )


class TierCheckPolicy(GeminiPolicy):
    """GEMINI's CPU tier plus a pooled-NVMe middle tier for deep failures."""

    name = "tiercheck"

    def __init__(
        self,
        config: Optional[GeminiConfig] = None,
        placement=None,
        *,
        ssd_interval: float = DEFAULT_SSD_INTERVAL,
        ssd_bandwidth: float = DEFAULT_SSD_BANDWIDTH,
        ssd_write_latency: float = DEFAULT_SSD_WRITE_LATENCY,
        ssd_read_latency: float = DEFAULT_SSD_READ_LATENCY,
    ):
        super().__init__(config, placement=placement)
        if ssd_interval <= 0:
            raise ValueError(f"ssd_interval must be > 0, got {ssd_interval}")
        self.ssd_interval = ssd_interval
        self._ssd_bandwidth = ssd_bandwidth
        self._ssd_write_latency = ssd_write_latency
        self._ssd_read_latency = ssd_read_latency
        self.ssd: Optional[SSDStore] = None
        self.ssd_checkpoints = 0

    # ------------------------------------------------------------------- setup

    def build(self) -> None:
        super().build()
        kernel = self.kernel
        self.ssd = SSDStore(
            kernel.cluster.size,
            aggregate_bandwidth=self._ssd_bandwidth,
            write_latency=self._ssd_write_latency,
            read_latency=self._ssd_read_latency,
            obs=kernel.obs,
        )
        # Iteration 0 is durable everywhere, matching the persistent tier.
        for rank in range(kernel.cluster.size):
            self.ssd.put_shard(rank, 0)
        kernel.sim.process(self._ssd_loop(), name="ssd-ckpt")

    # -------------------------------------------------------------- SSD cadence

    def _ssd_loop(self) -> Iterator:
        kernel = self.kernel
        while not kernel._stopped:
            yield kernel.sim.timeout(self.ssd_interval)
            # Settle macro boundaries before comparing against the pool.
            kernel.settle_iterations(strict=True)
            latest = self.ssd.latest_complete()
            if latest is not None and kernel.committed_iteration <= latest:
                continue  # nothing new since the last SSD snapshot
            snapshot, published = yield from kernel.upload_checkpoint(self.ssd)
            kernel.settle_iterations(strict=True)
            if not published:
                kernel.trace.record(
                    kernel.sim.now, TraceKind.SSD_ABORTED, iteration=snapshot
                )
                continue
            self.ssd_checkpoints += 1
            kernel.trace.record(
                kernel.sim.now, TraceKind.SSD_CHECKPOINT, iteration=snapshot
            )
            if kernel.obs.enabled:
                kernel.obs.metrics.counter(
                    "repro_ssd_checkpoints_total",
                    help="checkpoints landed in the SSD tier",
                ).inc()

    # ------------------------------------------------------------------ recovery

    def plan_recovery(self, failure_type, failed_ranks) -> RecoveryPlan:
        plan = super().plan_recovery(failure_type, failed_ranks)
        if plan.from_cpu_memory:
            return plan
        # CPU recovery infeasible: prefer the SSD pool over the remote
        # pipe whenever it is at least as fresh (the auditor re-derives
        # this same tier order independently).
        ssd_latest = self.ssd.latest_complete()
        if ssd_latest is None:
            return plan
        if plan.rollback_iteration is not None and ssd_latest < plan.rollback_iteration:
            return plan
        return RecoveryPlan(
            failure_type=failure_type,
            failed_ranks=sorted(failed_ranks),
            retrievals=uniform_retrievals(
                self.placement.num_machines, RetrievalSource.SSD
            ),
            rollback_iteration=ssd_latest,
            from_cpu_memory=False,
        )

    def _execute_retrievals(self, plan: RecoveryPlan, cost: RecoveryCostModel):
        if not plan.from_cpu_memory and any(
            retrieval.source is RetrievalSource.SSD for retrieval in plan.retrievals
        ):
            kernel = self.kernel
            yield kernel.sim.timeout(
                self.ssd.read_time(kernel.spec.checkpoint_bytes_total)
                + cost.serialization.load_time(kernel.spec.checkpoint_bytes_per_machine)
            )
            return
        yield from super()._execute_retrievals(plan, cost)

    # ------------------------------------------------------------------- analytic

    def timings(self, spec=None, plan=None) -> PolicyTimings:
        spec, plan = self._workload(spec, plan)
        return tiercheck_policy(
            spec,
            plan,
            num_replicas=self.config.num_replicas,
            ssd_bandwidth=self._ssd_bandwidth,
            ssd_read_latency=self._ssd_read_latency,
        )

    def expected_loss_by_tier(self, spec=None, plan=None, cost=None) -> dict:
        """Per-tier Equation-1 loss: what one failure costs if recovery
        lands on each tier (rollback depth and retrieval price both grow
        with tier depth)."""
        spec, plan = self._workload(spec, plan)
        cost = cost if cost is not None else self.config.cost_model
        t_iter = plan.iteration_time
        serialization = cost.serialization
        save = serialization.save_time(spec.checkpoint_bytes_per_machine)
        ssd_write = save + self._ssd_write_latency + (
            spec.checkpoint_bytes_total / self._ssd_bandwidth
        )
        ssd_read = (
            self._ssd_read_latency
            + spec.checkpoint_bytes_total / self._ssd_bandwidth
            + serialization.load_time(spec.checkpoint_bytes_per_machine)
        )
        persistent_write = save + (
            spec.checkpoint_bytes_total / self.config.persistent_bandwidth
        )
        recovery_base = cost.detection_delay + cost.restart_warmup
        return {
            # CPU tier: per-iteration commits, recovery serializes the
            # surviving replicas (GEMINI's Equation 1 shape).
            "cpu": (
                t_iter
                + t_iter / 2
                + recovery_base
                + cost.serialization_time(spec, self.config.num_replicas)
            ),
            # SSD tier: rollback averages half the SSD cadence plus the
            # in-flight snapshot; retrieval streams from the NVMe pool.
            "ssd": (
                ssd_write + self.ssd_interval / 2 + recovery_base + ssd_read
            ),
            # Persistent tier: BLOOM cadence and the 20 Gbps pipe.
            "persistent": (
                persistent_write
                + self.config.persistent_interval / 2
                + recovery_base
                + cost.persistent_retrieval_time(
                    spec, self.config.persistent_bandwidth
                )
            ),
        }

    def expected_loss_per_failure(
        self, spec=None, plan=None, cost=None, replacement_delay=0.0
    ) -> float:
        """Dominant path: the CPU tier absorbs the common case (GEMINI's
        Equation 1); deeper tiers only matter for group-wiping failures,
        which the chaos campaigns measure directly."""
        spec, plan = self._workload(spec, plan)
        cost = cost if cost is not None else self.config.cost_model
        return replacement_delay + self.expected_loss_by_tier(spec, plan, cost)["cpu"]

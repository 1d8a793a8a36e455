"""REFT-style hybrid-parallel in-memory replica placement.

REFT (arXiv 2310.2670-family, we follow 2310.12670) keeps in-memory
"snapshot buddies" aligned with the hybrid-parallel decomposition: a rank
in a TP x PP x DP grid replicates its shard onto its *data-parallel*
peers — the only ranks that hold the same pipeline stage and tensor slice
and can therefore adopt the shard without any resharding.  GEMINI's
placement treats all N machines as interchangeable; under hybrid
parallelism that would pair ranks whose checkpoints are not mutually
substitutable.

Here the decomposition maps onto the kernel as a placement: machines are
laid out rank = dp_index * (tp * pp) + stage, each of the ``tp * pp``
stages forms its own group of ``dp`` machines, and replica sets ring
within the stage.  Everything else — per-iteration commits, tiered
recovery, the invariant auditor's Section-6 re-derivation — is inherited
from :class:`~repro.core.policy.GeminiPolicy` unchanged, which is the
point: the placement is the policy.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.policies import PolicyTimings
from repro.core.placement import Placement, PlacementStrategy, _ring_replica_sets
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan

__all__ = ["ReftPolicy", "reft_placement", "reft_policy"]


def reft_placement(
    num_machines: int,
    num_replicas: int,
    tensor_parallel: int = 2,
    pipeline_parallel: int = 2,
) -> Placement:
    """Replica placement aligned with a TP x PP x DP decomposition.

    Machines are numbered ``rank = dp_index * stages + stage`` where
    ``stages = tensor_parallel * pipeline_parallel``.  Each stage's
    ``dp = num_machines / stages`` members form one placement group, and
    replicas ring inside the stage — every replica of a shard lives on a
    machine that could run that shard without resharding.
    """
    if tensor_parallel < 1 or pipeline_parallel < 1:
        raise ValueError(
            f"tp and pp must be >= 1, got tp={tensor_parallel} pp={pipeline_parallel}"
        )
    stages = tensor_parallel * pipeline_parallel
    if num_machines % stages != 0:
        raise ValueError(
            f"N={num_machines} machines do not tile a tp*pp={stages} grid"
        )
    dp = num_machines // stages
    if dp < num_replicas:
        raise ValueError(
            f"dp={dp} data-parallel peers cannot hold m={num_replicas} replicas"
        )
    groups = []
    replica_sets = {}
    for stage in range(stages):
        members = [d * stages + stage for d in range(dp)]
        groups.append(tuple(members))
        replica_sets.update(_ring_replica_sets(members, num_replicas))
    return Placement(
        num_machines=num_machines,
        num_replicas=num_replicas,
        strategy=PlacementStrategy.RING,
        groups=tuple(groups),
        replica_sets=tuple(
            replica_sets[rank] for rank in range(num_machines)
        ),
    )


def reft_policy(
    spec: ShardingSpec,
    plan: IterationPlan,
    num_replicas: int = 2,
    network_bandwidth: Optional[float] = None,
) -> PolicyTimings:
    """Analytic profile: GEMINI's per-iteration in-memory cadence with the
    remote-CPU retrieval path (a DP peer streams the shard back over the
    network — no resharding, so the transfer is the whole cost)."""
    if network_bandwidth is None:
        network_bandwidth = plan.instance.network_bandwidth
    t_iter = plan.iteration_time
    return PolicyTimings(
        name="reft",
        checkpoint_time=t_iter,
        checkpoint_interval=t_iter,
        retrieval_time=spec.checkpoint_bytes_per_machine / network_bandwidth,
        stall_per_checkpoint=0.0,
        iteration_time=t_iter,
    )


class ReftPolicy(GeminiPolicy):
    """GEMINI's machinery on a hybrid-parallel-aware replica placement."""

    name = "reft"

    def __init__(
        self,
        config: Optional[GeminiConfig] = None,
        placement=None,
        *,
        tensor_parallel: int = 2,
        pipeline_parallel: int = 2,
    ):
        super().__init__(config, placement=placement)
        if self.config.use_agents:
            raise ValueError(
                "reft uses fixed-delay detection; agents are unsupported"
            )
        self.tensor_parallel = tensor_parallel
        self.pipeline_parallel = pipeline_parallel

    def configure(self) -> None:
        # Same contract as the base: an explicit placement argument wins,
        # otherwise derive one — here from the parallelism grid instead of
        # the config's placement strategy.
        self.placement = self._placement_arg or reft_placement(
            self.kernel.cluster.size,
            self.config.num_replicas,
            tensor_parallel=self.tensor_parallel,
            pipeline_parallel=self.pipeline_parallel,
        )

    # ------------------------------------------------------------------- analytic

    def timings(self, spec=None, plan=None) -> PolicyTimings:
        spec, plan = self._workload(spec, plan)
        return reft_policy(spec, plan, num_replicas=self.config.num_replicas)

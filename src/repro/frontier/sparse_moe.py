"""Sparse-MoE checkpointing: replicate only the experts that moved.

Sparse mixture-of-experts checkpointing (arXiv 2412.15411) exploits the
routing sparsity of MoE training: an iteration's optimizer step touches
the dense trunk plus only the experts the batch routed through, so the
bytes worth re-replicating are a small, deterministic slice of the full
checkpoint.  Commit *semantics* stay exactly GEMINI's — every iteration
is durable once its dirty slice lands, because the clean experts'
replicas are already current — which keeps rollback, the recovery
planner, and the invariant auditor untouched.

What changes is the price: steady-state replication traffic shrinks by
:meth:`~repro.training.moe.MoESpec.mean_dirty_fraction`, and a failure's
expected loss grows a staleness term — the experts a rank recovers are on
average ``(period - 1) / 2`` iterations behind the trunk, so their lost
work re-runs.  Both are pure functions of the iteration number
(:class:`~repro.training.moe.MoESpec` is deliberately RNG-free), so
macro-tick ``fast_forward`` replay accounts the identical bytes the
per-iteration path would have.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.policies import PolicyTimings
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.storage.serialization import SerializationModel
from repro.training.moe import MoESpec
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan

__all__ = ["SparseMoEPolicy", "sparse_moe_policy"]


def sparse_moe_policy(
    spec: ShardingSpec,
    plan: IterationPlan,
    num_replicas: int = 2,
    num_experts: int = 16,
    expert_param_fraction: float = 0.75,
    expert_update_period: int = 4,
    serialization: SerializationModel = SerializationModel(),
) -> PolicyTimings:
    """Analytic profile: GEMINI's per-iteration cadence with checkpoint
    traffic scaled to the mean dirty fraction; recovery still serializes
    the *full* state from surviving CPU replicas."""
    moe = MoESpec(
        spec,
        num_experts=num_experts,
        expert_param_fraction=expert_param_fraction,
        expert_update_period=expert_update_period,
    )
    t_iter = plan.iteration_time
    dirty_bytes = spec.checkpoint_bytes_per_machine * moe.mean_dirty_fraction()
    return PolicyTimings(
        name="sparse_moe",
        checkpoint_time=serialization.save_time(dirty_bytes),
        checkpoint_interval=t_iter,
        retrieval_time=serialization.load_time(
            spec.checkpoint_bytes_per_machine * num_replicas
        ),
        stall_per_checkpoint=0.0,
        iteration_time=t_iter,
    )


class SparseMoEPolicy(GeminiPolicy):
    """GEMINI commits priced at the MoE dirty slice, not the full state."""

    name = "sparse_moe"

    def __init__(
        self,
        config: Optional[GeminiConfig] = None,
        placement=None,
        *,
        num_experts: int = 16,
        expert_param_fraction: float = 0.75,
        expert_update_period: int = 4,
    ):
        super().__init__(config, placement=placement)
        self._num_experts = num_experts
        self._expert_param_fraction = expert_param_fraction
        self._expert_update_period = expert_update_period
        self.moe: Optional[MoESpec] = None
        #: cumulative replication bytes actually shipped (all machines,
        #: all replicas) — the dense equivalent is this divided by
        #: ``mean_dirty_fraction()``.
        self.replicated_bytes = 0.0

    # ------------------------------------------------------------------- setup

    def configure(self) -> None:
        super().configure()
        self.moe = MoESpec(
            self.kernel.spec,
            num_experts=self._num_experts,
            expert_param_fraction=self._expert_param_fraction,
            expert_update_period=self._expert_update_period,
        )
        #: replication bytes the whole cluster ships for an iteration, per
        #: residue of the update period: the experts an iteration updates
        #: depend on nothing else.
        self.shipped_by_residue = tuple(
            self.moe.dirty_bytes_per_machine(residue)
            * self.kernel.cluster.size
            * self.config.num_replicas
            for residue in range(self._expert_update_period)
        )

    # ----------------------------------------------------------------- commits

    def _shipped(self, iteration: int) -> float:
        """Replication bytes the whole cluster ships for ``iteration``."""
        table = self.shipped_by_residue
        return table[iteration % len(table)]

    def commit_checkpoint(self, iteration, **kwargs) -> None:
        super().commit_checkpoint(iteration, **kwargs)
        if iteration > 0:  # the seed checkpoint ships everything
            self.replicated_bytes += self._shipped(iteration)

    def _replay_commits(self, start, stop, interval, times) -> None:
        # Dirtiness is a pure function of the iteration number, so the
        # replayed commits add the bytes the per-iteration path would,
        # in the same order.
        super()._replay_commits(start, stop, interval, times)
        table = self.shipped_by_residue
        period = len(table)
        total = self.replicated_bytes
        for iteration in range(start, stop, interval):
            total += table[iteration % period]
        self.replicated_bytes = total

    def _observe_commit(self, iteration: int, at: float) -> None:
        super()._observe_commit(iteration, at)
        self.kernel.obs.metrics.counter(
            "repro_moe_dirty_bytes_total",
            help="MoE replication bytes actually shipped (dirty slices)",
        ).inc(self._shipped(iteration))

    # ------------------------------------------------------------------- analytic

    def timings(self, spec=None, plan=None) -> PolicyTimings:
        spec, plan = self._workload(spec, plan)
        return sparse_moe_policy(
            spec,
            plan,
            num_replicas=self.config.num_replicas,
            num_experts=self._num_experts,
            expert_param_fraction=self._expert_param_fraction,
            expert_update_period=self._expert_update_period,
        )

    def expected_loss_per_failure(
        self, spec=None, plan=None, cost=None, replacement_delay=0.0
    ) -> float:
        """GEMINI's Equation-1 loss plus expert staleness.

        The trunk loses the usual in-flight half iteration (plus the
        one-iteration commit lag).  Recovered experts are on average
        ``(period - 1) / 2`` updates behind the trunk, and each stale
        update costs the expert slice of an iteration's work — a
        ``fraction * (period - 1) / 2`` iteration surcharge on top of the
        dense loss.
        """
        spec, plan = self._workload(spec, plan)
        cost = cost if cost is not None else self.config.cost_model
        t_iter = plan.iteration_time
        moe = MoESpec(
            spec,
            num_experts=self._num_experts,
            expert_param_fraction=self._expert_param_fraction,
            expert_update_period=self._expert_update_period,
        )
        dense_lost = t_iter + t_iter / 2
        expert_staleness = (
            t_iter * moe.expert_param_fraction * moe.max_expert_staleness / 2
        )
        return (
            dense_lost
            + expert_staleness
            + cost.detection_delay
            + replacement_delay
            + cost.serialization_time(spec, self.config.num_replicas)
            + cost.restart_warmup
        )

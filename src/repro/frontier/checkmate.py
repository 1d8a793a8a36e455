"""Checkmate: per-iteration checkpointing on the gradient traffic.

Checkmate (arXiv 2507.13522) observes that the backward pass already
moves every gradient through the network; piggybacking replication on
that traffic makes a checkpoint of iteration ``k`` durable the moment the
gradient all-reduce completes — before the optimizer tail has even run —
at no extra training stall.  Any failure therefore loses at most the one
iteration in flight.

On the kernel this is the gradient-phase hook
(:attr:`~repro.core.kernel.CheckpointPolicy.gradient_phase_fraction` +
:meth:`~repro.core.kernel.CheckpointPolicy.on_gradient_phase`): the
per-iteration timeout splits at the point the gradient sync finishes and
the policy commits there.  Because every gradient deterministically
reproduces the post-step state, committing at the gradient boundary is
safe: every peer holding the replicated gradients can reconstruct
iteration ``k`` exactly.

Macro ticks still apply: a window carries each iteration's gradient
point next to its end, and GEMINI's inherited ``fast_forward`` replays
the gradient-point commits at those exact times, so a coalesced run is
byte-identical to one split process per iteration.  Everything
downstream — placement, CPU-memory stores, tiered recovery — reuses
GEMINI's machinery unchanged, which keeps the invariant auditor's
independent re-derivation in exact agreement.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.baselines.policies import PolicyTimings
from repro.core.policy import GeminiPolicy
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan

__all__ = ["CheckmatePolicy", "DEFAULT_GRADIENT_PHASE_FRACTION", "checkmate_policy"]

#: fraction of the iteration at which the backward pass + gradient
#: all-reduce complete (forward ~1/4, backward+comm ~1/2, optimizer tail
#: ~1/4 of the step).
DEFAULT_GRADIENT_PHASE_FRACTION = 0.75


def checkmate_policy(
    spec: ShardingSpec,
    plan: IterationPlan,
    num_replicas: int = 2,
    network_bandwidth: Optional[float] = None,
    gradient_phase_fraction: float = DEFAULT_GRADIENT_PHASE_FRACTION,
) -> PolicyTimings:
    """Analytic timing profile: commit cadence of one iteration, durable
    at the gradient boundary, so the in-flight exposure is only the
    optimizer tail — ``(1 - fraction) * T_iter`` instead of GEMINI's full
    ``T_iter``."""
    if network_bandwidth is None:
        network_bandwidth = plan.instance.network_bandwidth
    t_iter = plan.iteration_time
    return PolicyTimings(
        name="checkmate",
        checkpoint_time=(1.0 - gradient_phase_fraction) * t_iter,
        checkpoint_interval=t_iter,
        retrieval_time=spec.checkpoint_bytes_per_machine / network_bandwidth,
        stall_per_checkpoint=0.0,
        iteration_time=t_iter,
    )


class CheckmatePolicy(GeminiPolicy):
    """Gradient-window replication: rollback is bounded by one iteration."""

    name = "checkmate"
    gradient_phase_fraction = DEFAULT_GRADIENT_PHASE_FRACTION

    # ------------------------------------------------------------------ training

    def on_gradient_phase(self, iteration: int) -> Iterator:
        # The gradient all-reduce just finished: every storer holds the
        # bytes that deterministically reproduce iteration's state, so the
        # commit is durable now — the optimizer tail is pure local work.
        # This is GEMINI's boundary commit moved to the gradient point,
        # which is exactly what the inherited fast_forward replays there.
        return super().on_iteration(iteration)

    def on_iteration(self, finished: int) -> Iterator:
        # Already committed at the gradient phase; the boundary is pure
        # bookkeeping (re-committing would double-record the trace).
        return
        yield  # pragma: no cover - makes this a (empty) generator

    # ------------------------------------------------------------------- analytic

    def timings(self, spec=None, plan=None) -> PolicyTimings:
        spec, plan = self._workload(spec, plan)
        return checkmate_policy(
            spec,
            plan,
            num_replicas=self.config.num_replicas,
            gradient_phase_fraction=self.gradient_phase_fraction,
        )

    def expected_loss_per_failure(
        self, spec=None, plan=None, cost=None, replacement_delay=0.0
    ) -> float:
        """Rollback never exceeds the iteration in flight: expected lost
        progress is ``T_iter / 2`` (uniform failure time), and recovery
        retrieves from CPU memory like GEMINI (serialization replaces the
        retrieval term)."""
        spec, plan = self._workload(spec, plan)
        cost = cost if cost is not None else self.config.cost_model
        lost_progress = plan.iteration_time / 2
        return (
            lost_progress
            + cost.detection_delay
            + replacement_delay
            + cost.serialization_time(spec, self.config.num_replicas)
            + cost.restart_warmup
        )

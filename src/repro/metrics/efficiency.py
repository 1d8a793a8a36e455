"""Effective training-time ratio under failures (Figure 15).

The ratio is the fraction of wall-clock time that turns into durable
training progress.  Three loss channels:

1. per-checkpoint stalls (torch.save blocks training for the baselines;
   GEMINI stalls nothing — it only serializes on failure);
2. lost progress per failure: on average half a checkpoint interval plus
   the in-flight checkpoint (Equation 1's first two terms);
3. recovery overhead per failure: detection + (replacement) +
   serialization + retrieval + warm-up.

Both channels now come from the policy itself: any name registered with
:mod:`repro.experiments.registry` supplies its stall fraction via
``timings()`` and its per-failure loss via ``expected_loss_per_failure``
(Equation 1), so this module needs no per-policy branches.  The
expected-value model is what the paper's own simulation does ("we can
simulate the training performance based on the incurred overhead by one
failure", Section 7.3).  The full-DES cross-check runs the same point
as a :class:`repro.experiments.Scenario` (Poisson failures, one row per
seed set) and compares its ``mean_ratio`` against this model.
"""

from __future__ import annotations

from typing import Optional

from repro.core.recovery import RecoveryCostModel
from repro.experiments.registry import create_policy
from repro.failures.injector import OPT_DAILY_FAILURE_RATE
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan
from repro.units import DAY, gbps


def _policy_model(
    policy: str,
    num_replicas: int,
    persistent_bandwidth: float,
    cost: RecoveryCostModel,
):
    """An unbound policy instance parameterized like the old branches."""
    return create_policy(
        policy,
        num_replicas=num_replicas,
        persistent_bandwidth=persistent_bandwidth,
        serialization=cost.serialization,
    )


def per_failure_loss(
    policy: str,
    spec: ShardingSpec,
    plan: IterationPlan,
    num_replicas: int = 2,
    cost_model: Optional[RecoveryCostModel] = None,
    persistent_bandwidth: float = gbps(20),
    replacement_delay: float = 0.0,
) -> float:
    """Expected seconds of wall-clock lost per failure (progress + recovery).

    ``replacement_delay`` is 0 for software failures or with standby
    machines; pass the ASG provisioning delay otherwise.
    """
    cost = cost_model or RecoveryCostModel()
    impl = _policy_model(policy, num_replicas, persistent_bandwidth, cost)
    return impl.expected_loss_per_failure(
        spec, plan, cost=cost, replacement_delay=replacement_delay
    )


def effective_training_time_ratio(
    policy: str,
    spec: ShardingSpec,
    plan: IterationPlan,
    failures_per_day: float,
    num_replicas: int = 2,
    cost_model: Optional[RecoveryCostModel] = None,
    persistent_bandwidth: float = gbps(20),
    replacement_delay: float = 0.0,
) -> float:
    """Expected effective training-time ratio at a cluster-wide failure rate.

    ``failures_per_day`` is the *aggregate* rate (e.g. 1.5% per instance
    per day x N instances).  Returns a value clamped to [0, 1].
    """
    if failures_per_day < 0:
        raise ValueError(f"failures_per_day must be >= 0, got {failures_per_day}")
    cost = cost_model or RecoveryCostModel()
    impl = _policy_model(policy, num_replicas, persistent_bandwidth, cost)
    stall_fraction = impl.timings(spec, plan).stall_fraction
    loss = impl.expected_loss_per_failure(
        spec, plan, cost=cost, replacement_delay=replacement_delay
    )
    rate_per_second = failures_per_day / DAY
    ratio = (1.0 - stall_fraction) - rate_per_second * loss
    return max(0.0, min(1.0, ratio))


def ratio_vs_cluster_size(
    policy: str,
    spec_builder,
    num_machines: int,
    daily_rate_per_machine: float = OPT_DAILY_FAILURE_RATE,
    **kwargs,
) -> float:
    """Figure 15b helper: aggregate failure rate scales with cluster size.

    ``spec_builder(num_machines) -> (spec, plan)`` supplies the workload at
    each scale (iteration time shifts slightly with N).
    """
    spec, plan = spec_builder(num_machines)
    failures_per_day = daily_rate_per_machine * num_machines
    return effective_training_time_ratio(
        policy, spec, plan, failures_per_day, **kwargs
    )

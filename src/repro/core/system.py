"""GeminiSystem: the GEMINI-managed training job, as a kernel facade.

The cluster-level event loop (iteration ticks, failure delivery, machine
replacement, recovery lifecycle, obs instrumentation) lives in
:class:`repro.core.kernel.SimulatedTrainingSystem`; GEMINI's checkpoint
behavior (placement, CPU-memory stores, tiered recovery) lives in
:class:`repro.core.policy.GeminiPolicy`.  This module keeps the original
public API: ``GeminiSystem(model, instance, N, config=...)`` builds the
kernel with a GEMINI policy; its substrate (placement, stores) lives on
``system.policy`` and the worker/root agents on ``system.detector``.

``GeminiConfig`` and ``SystemResult`` are re-exported here for
compatibility — most call sites import them from this module.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.instances import InstanceType
from repro.core.kernel import SimulatedTrainingSystem, SystemResult
from repro.core.placement import Placement
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.obs import Observability
from repro.training.models import ModelConfig
from repro.training.timeline import IterationPlan

__all__ = ["GeminiConfig", "GeminiSystem", "SystemResult"]


class GeminiSystem(SimulatedTrainingSystem):
    """A GEMINI-managed training job on a simulated cluster."""

    policy: GeminiPolicy

    def __init__(
        self,
        model: ModelConfig,
        instance: InstanceType,
        num_machines: int,
        config: Optional[GeminiConfig] = None,
        placement: Optional[Placement] = None,
        plan: Optional[IterationPlan] = None,
        obs: Optional[Observability] = None,
    ):
        config = config or GeminiConfig()
        super().__init__(
            model,
            instance,
            num_machines,
            GeminiPolicy(config, placement=placement),
            seed=config.seed,
            num_standby=config.num_standby,
            persistent_bandwidth=config.persistent_bandwidth,
            cost_model=config.cost_model,
            plan=plan,
            obs=obs,
        )
        self.config = config

    @property
    def leader_rank(self) -> Optional[int]:
        """Rank of the current root-agent leader (``None`` without agents)."""
        return self.detector.leader_rank

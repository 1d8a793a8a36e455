"""Remote-storage baseline policies (Strawman, HighFreq) and their facade.

Both baselines checkpoint only to persistent storage: periodic
torch.save() stalls training, the checkpoint uploads asynchronously to
persistent storage, and every recovery — no matter the failure type —
retrieves the whole model back through the 20 Gbps persistent pipe
(Figure 6a).  They differ only in cadence: Strawman uses BLOOM's 3-hour
interval, HighFreq checkpoints as fast as the pipe allows (Section 7.1).

Each is a :class:`repro.core.kernel.CheckpointPolicy` that supplies
only its checkpoint cadence and an all-persistent recovery plan: it
recovers through the shared :meth:`CheckpointPolicy.recover` loop with
that loop's default hooks (no machine to provision, no replicas to
serialize, one persistent retrieval).  :class:`BaselineSystem` is the thin
API-compatible facade over the shared
:class:`repro.core.kernel.SimulatedTrainingSystem` event loop.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.baselines.policies import PolicyTimings, highfreq_policy, strawman_policy
from repro.cluster.instances import InstanceType
from repro.core.kernel import CheckpointPolicy, SimulatedTrainingSystem, SystemResult
from repro.core.recovery import (
    RecoveryCostModel,
    RecoveryPlan,
    RetrievalSource,
    uniform_retrievals,
)
from repro.storage.serialization import SerializationModel
from repro.training.models import ModelConfig
from repro.training.timeline import IterationPlan
from repro.units import gbps

__all__ = [
    "BaselineSystem",
    "HighFreqPolicy",
    "PersistentOnlyPolicy",
    "StrawmanPolicy",
    "SystemResult",
]


class PersistentOnlyPolicy(CheckpointPolicy):
    """Shared behavior of the remote-storage baselines.

    Subclasses supply :meth:`make_timings`; everything else — the
    torch.save stall at each cadence boundary, the asynchronous upload,
    and the always-from-persistent recovery plan — is common.
    """

    def __init__(
        self,
        persistent_bandwidth: float = gbps(20),
        serialization: Optional[SerializationModel] = None,
    ):
        self.persistent_bandwidth = persistent_bandwidth
        #: explicit serialization model for analytic use; bound policies
        #: default to the kernel's cost model, unbound ones to the stock
        #: :class:`SerializationModel`.
        self.serialization = serialization
        self.persisted_iteration = 0
        self._upload_in_flight = False
        self._timings: Optional[PolicyTimings] = None

    def make_timings(
        self,
        spec,
        plan,
        serialization: SerializationModel,
    ) -> PolicyTimings:
        raise NotImplementedError

    # ------------------------------------------------------------------- setup

    def configure(self) -> None:
        kernel = self.kernel
        self._timings = self.make_timings(
            kernel.spec,
            kernel.plan,
            self.serialization or kernel.cost_model.serialization,
        )

    # ------------------------------------------------------------------ training

    def on_iteration(self, finished: int) -> Iterator:
        kernel = self.kernel
        kernel.committed_iteration = finished
        interval = self._timings.interval_iterations
        if finished % interval == 0 and not kernel._recovery_active:
            # torch.save() of the resident GPU states blocks training.
            yield kernel.sim.timeout(self._timings.stall_per_checkpoint)
            if not self._upload_in_flight:
                self._upload_in_flight = True
                kernel.sim.process(self._upload(), name="ckpt-upload")

    def coalesce_iterations(self, start: int) -> int:
        # Cadence-boundary iterations stall training (torch.save) and
        # spawn uploads — they must run per-iteration.  The stretch up to
        # the next boundary only publishes progress, which fast_forward
        # replays exactly.
        interval = self._timings.interval_iterations
        remainder = start % interval
        if remainder == 0:
            return 0
        return interval - remainder

    def fast_forward(self, first, last, boundary_times, assume_healthy=()):
        # Each coalesced iteration would have set committed_iteration to
        # itself; the assignments are monotonic, so last-write-wins.
        self.kernel.committed_iteration = last

    def _upload(self):
        kernel = self.kernel
        try:
            # torch.save already stalled training: no serialization here.
            snapshot, published = yield from kernel.upload_checkpoint(
                kernel.persistent, serialize=False
            )
            if not published:
                kernel.record_persistent_aborted(snapshot)
                return
            self.persisted_iteration = max(self.persisted_iteration, snapshot)
            kernel.record_persistent_checkpoint(snapshot)
        finally:
            # Released in finally so a dead upload can't wedge the gate.
            self._upload_in_flight = False

    # ------------------------------------------------------------------ recovery

    def plan_recovery(self, failure_type, failed_ranks) -> RecoveryPlan:
        kernel = self.kernel
        return RecoveryPlan(
            failure_type=failure_type,
            failed_ranks=sorted(failed_ranks),
            retrievals=uniform_retrievals(
                kernel.cluster.size, RetrievalSource.PERSISTENT
            ),
            rollback_iteration=kernel.persistent.latest_complete() or 0,
            from_cpu_memory=False,
        )

    # ------------------------------------------------------------------- analytic

    def timings(self, spec=None, plan=None) -> PolicyTimings:
        if spec is None and plan is None and self._timings is not None:
            return self._timings
        spec, plan = self._workload(spec, plan)
        return self.make_timings(spec, plan, self.serialization or SerializationModel())


class StrawmanPolicy(PersistentOnlyPolicy):
    """Checkpoint to persistent storage every three hours (BLOOM)."""

    name = "strawman"

    def make_timings(self, spec, plan, serialization) -> PolicyTimings:
        return strawman_policy(spec, plan, self.persistent_bandwidth, serialization)


class HighFreqPolicy(PersistentOnlyPolicy):
    """Checkpoint to persistent storage as fast as its bandwidth allows."""

    name = "highfreq"

    def make_timings(self, spec, plan, serialization) -> PolicyTimings:
        return highfreq_policy(spec, plan, self.persistent_bandwidth, serialization)


class BaselineSystem(SimulatedTrainingSystem):
    """A training job checkpointing only to remote persistent storage.

    Thin facade over :class:`SimulatedTrainingSystem` kept for API
    compatibility; the behavior lives in the baseline policies above.
    """

    def __init__(
        self,
        model: ModelConfig,
        instance: InstanceType,
        num_machines: int,
        policy: str = "strawman",
        persistent_bandwidth: float = gbps(20),
        num_standby: int = 0,
        seed: int = 0,
        cost_model: Optional[RecoveryCostModel] = None,
        plan: Optional[IterationPlan] = None,
    ):
        if isinstance(policy, str):
            # Any registered policy works here; an unknown name fails
            # with the registry's current choices.
            from repro.experiments.registry import create_policy

            policy_impl: CheckpointPolicy = create_policy(
                policy,
                persistent_bandwidth=persistent_bandwidth,
                use_agents=False,
            )
        else:
            policy_impl = policy
        super().__init__(
            model,
            instance,
            num_machines,
            policy_impl,
            seed=seed,
            num_standby=num_standby,
            persistent_bandwidth=persistent_bandwidth,
            cost_model=cost_model,
            plan=plan,
        )

    @property
    def persisted_iteration(self) -> int:
        """Latest iteration durable in persistent storage."""
        return self.policy.persisted_iteration

    @property
    def timings(self) -> PolicyTimings:
        """The active policy's analytic timing profile."""
        return self.policy.timings()

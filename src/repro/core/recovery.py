"""Failure recovery: classification, planning, costing, execution (Sec 6).

The recovery path after a failure:

1. **detect** — the root agent / cloud tooling notices (≈15 s measured);
2. **replace** — hardware failures only: the cloud operator swaps the
   failed machines (4-7 min via ASG, ~10 s from standby);
3. **serialize** — alive agents torch.save() their CPU-memory replicas so
   PyTorch can load them (162 s for two 75 GB replicas on GPT-2 100B);
4. **retrieve** — each rank fetches its shard from the fastest tier that
   has it: local CPU memory (free), a peer's CPU memory (~1.5 s at
   400 Gbps), or remote persistent storage (~8 min for GPT-2 100B at the
   20 Gbps aggregate);
5. **warm up** — process restart, NCCL re-init, first-iteration warm-up
   (>4 min measured).

The planner decides the per-rank retrieval source (Case 1: every placement
group still has a survivor; Case 2: some group was wiped out, so everyone
must fall back to persistent storage for consistency).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from repro.core.placement import Placement
from repro.failures.types import FailureType
from repro.storage.cpu_memory import CPUCheckpointStore, StorePlane
from repro.storage.persistent import PersistentStore
from repro.storage.serialization import SerializationModel
from repro.training.states import ShardingSpec
from repro.units import MINUTE

#: Measured root-agent detection latency (Section 7.3 / Figure 14).
DEFAULT_DETECTION_DELAY = 15.0
#: Measured restart warm-up ("more than four minutes", Section 7.3).
DEFAULT_RESTART_WARMUP = 4.2 * MINUTE


class RetrievalSource(enum.Enum):
    """Where a rank's checkpoint shard comes from during recovery."""

    LOCAL_CPU = "local_cpu"
    REMOTE_CPU = "remote_cpu"
    #: cluster-local NVMe tier (TierCheck-style tiered policies).
    SSD = "ssd"
    PERSISTENT = "persistent"


@dataclass(frozen=True)
class ShardRetrieval:
    """One rank's retrieval instruction."""

    rank: int
    source: RetrievalSource
    #: peer rank to fetch from when source is REMOTE_CPU
    peer: Optional[int] = None


@dataclass
class RecoveryPlan:
    """The planner's decision for one failure."""

    failure_type: FailureType
    failed_ranks: List[int]
    retrievals: List[ShardRetrieval]
    rollback_iteration: Optional[int]
    from_cpu_memory: bool

    @property
    def sources(self) -> Dict[int, RetrievalSource]:
        return {r.rank: r.source for r in self.retrievals}


class UnrecoverableError(RuntimeError):
    """No complete checkpoint exists anywhere (not even persistent)."""


@functools.lru_cache(maxsize=None)
def _uniform(num_machines: int, source: RetrievalSource) -> Tuple[ShardRetrieval, ...]:
    return tuple(ShardRetrieval(rank=rank, source=source) for rank in range(num_machines))


def uniform_retrievals(num_machines: int, source: RetrievalSource) -> List[ShardRetrieval]:
    """A fresh list of one ``source`` retrieval per rank.

    The retrievals are immutable and depend only on the cluster size, so
    every plan for ``num_machines`` ranks shares one tuple per source and
    gets its own list copy.
    """
    return list(_uniform(num_machines, source))


def plan_recovery(
    placement: Placement,
    stores: Dict[int, CPUCheckpointStore],
    persistent: PersistentStore,
    failure_type: FailureType,
    failed_ranks: List[int],
    plane: Optional[StorePlane] = None,
) -> RecoveryPlan:
    """Decide every rank's retrieval source and the rollback iteration.

    ``stores`` maps rank -> that machine's CPU checkpoint store (stores of
    hardware-failed machines are invalid and report no checkpoints).
    ``plane`` is the stores' shared :class:`StorePlane`, if they have one;
    its clean stores must all belong to healthy machines (the caller
    freezes those of down ranks first).  Survivors' own replicas are then
    read from the watermark and the diverged stores alone.
    """
    n = placement.num_machines
    failed = set(failed_ranks)
    failed_sorted = sorted(failed)

    if failure_type is FailureType.SOFTWARE:
        # Hardware intact everywhere: every machine reloads its own local
        # replica (Figure 6b).
        complete, rollback = _own_floor(stores, plane, n, ())
        if complete:
            return RecoveryPlan(
                failure_type=failure_type,
                failed_ranks=failed_sorted,
                retrievals=uniform_retrievals(n, RetrievalSource.LOCAL_CPU),
                rollback_iteration=rollback,
                from_cpu_memory=True,
            )
        return _persistent_plan(n, persistent, failure_type, failed_sorted)

    # Hardware failure: every survivor reads its own replica ...
    complete, rollback = _own_floor(stores, plane, n, failed)
    if not complete:
        return _persistent_plan(n, persistent, failure_type, failed_sorted)
    # ... and each lost shard comes from its lowest-ranked surviving peer
    # with a complete copy.
    retrievals = uniform_retrievals(n, RetrievalSource.LOCAL_CPU)
    for rank in failed_sorted:
        for peer in sorted(placement.storers_of(rank)):
            if peer == rank or peer in failed:
                continue
            latest = stores[peer].latest_complete(rank)
            if latest is not None:
                break
        else:
            # Case 2: a whole placement group failed together.
            return _persistent_plan(n, persistent, failure_type, failed_sorted)
        if rollback is None or latest < rollback:
            rollback = latest
        retrievals[rank] = ShardRetrieval(
            rank=rank, source=RetrievalSource.REMOTE_CPU, peer=peer
        )
    return RecoveryPlan(
        failure_type=failure_type,
        failed_ranks=failed_sorted,
        retrievals=retrievals,
        rollback_iteration=rollback,
        from_cpu_memory=True,
    )


def _own_floor(
    stores: Dict[int, CPUCheckpointStore],
    plane: Optional[StorePlane],
    n: int,
    lost: Collection[int],
) -> Tuple[bool, Optional[int]]:
    """``(complete, floor)`` over the own replicas of ranks not in ``lost``.

    ``complete`` is False when one of them holds none; ``floor`` is the
    oldest iteration among them (None when every rank is lost).  With a
    plane, the clean survivors all hold its watermark, so only the
    diverged survivors are read one by one.
    """
    floor: Optional[int] = None
    if plane is None:
        ranks = [rank for rank in range(n) if rank not in lost]
    else:
        ranks = [rank for rank in plane.diverged if rank not in lost]
        if n - len(lost) > len(ranks):
            floor = plane.watermark
            if floor is None:
                return False, None
    for rank in ranks:
        own = stores[rank].latest_complete(rank)
        if own is None:
            return False, None
        if floor is None or own < floor:
            floor = own
    return True, floor


def recovery_source(plan: RecoveryPlan) -> RetrievalSource:
    """The slowest tier a plan reads from, which names the recovery.

    A fallback plan reads every shard from one tier (persistent storage,
    or TierCheck's SSD pool); a CPU-memory plan reads survivors locally
    and only failed ranks from a peer.
    """
    if not plan.from_cpu_memory:
        return plan.retrievals[0].source
    retrievals = plan.retrievals
    for rank in plan.failed_ranks:
        if retrievals[rank].source is RetrievalSource.REMOTE_CPU:
            return RetrievalSource.REMOTE_CPU
    return RetrievalSource.LOCAL_CPU


def _persistent_plan(
    num_machines: int,
    persistent: PersistentStore,
    failure_type: FailureType,
    failed_sorted: List[int],
) -> RecoveryPlan:
    rollback = persistent.latest_complete()
    if rollback is None:
        raise UnrecoverableError(
            "no complete checkpoint in persistent storage and CPU-memory "
            "replicas are unavailable"
        )
    return RecoveryPlan(
        failure_type=failure_type,
        failed_ranks=failed_sorted,
        retrievals=uniform_retrievals(num_machines, RetrievalSource.PERSISTENT),
        rollback_iteration=rollback,
        from_cpu_memory=False,
    )


@dataclass(frozen=True)
class RecoveryCostModel:
    """Analytic per-phase recovery costs (Fig 14 / Section 7.3 constants).

    Used by the efficiency simulations (Figure 15) and as the timing source
    for the DES executor.
    """

    detection_delay: float = DEFAULT_DETECTION_DELAY
    restart_warmup: float = DEFAULT_RESTART_WARMUP
    serialization: SerializationModel = field(default_factory=SerializationModel)

    def serialization_time(self, spec: ShardingSpec, num_replicas: int) -> float:
        """torch.save() of every replica a machine hosts (runs in parallel
        across machines; each machine serializes ``num_replicas`` shards)."""
        return self.serialization.save_time(
            spec.checkpoint_bytes_per_machine * num_replicas
        )

    def local_retrieval_time(self) -> float:
        """Loading from local CPU memory is negligible (Figure 6b)."""
        return 0.0

    def remote_cpu_retrieval_time(self, spec: ShardingSpec, bandwidth: float) -> float:
        """One shard over the training network ("less than three seconds")."""
        return spec.checkpoint_bytes_per_machine / bandwidth

    def persistent_retrieval_time(self, spec: ShardingSpec, persistent_bandwidth: float) -> float:
        """The whole model over the shared persistent-storage pipe, plus
        the torch.load() deserialization of each machine's shard."""
        transfer = spec.checkpoint_bytes_total / persistent_bandwidth
        load = self.serialization.load_time(spec.checkpoint_bytes_per_machine)
        return transfer + load

    def software_recovery_overhead(self, spec: ShardingSpec, num_replicas: int) -> float:
        """Wall-clock from failure to training resumption, software case."""
        return (
            self.detection_delay
            + self.serialization_time(spec, num_replicas)
            + self.local_retrieval_time()
            + self.restart_warmup
        )

    def hardware_recovery_overhead(
        self,
        spec: ShardingSpec,
        num_replicas: int,
        replacement_delay: float,
        network_bandwidth: float,
    ) -> float:
        """Wall-clock from failure to resumption, recoverable hardware case."""
        return (
            self.detection_delay
            + replacement_delay
            + self.serialization_time(spec, num_replicas)
            + self.remote_cpu_retrieval_time(spec, network_bandwidth)
            + self.restart_warmup
        )


@dataclass
class RecoveryRecord:
    """Timeline of one executed recovery (Figure 14's annotations)."""

    failure_time: float
    failure_type: FailureType
    failed_ranks: List[int]
    detected_at: float = 0.0
    replacement_done_at: Optional[float] = None
    serialization_done_at: float = 0.0
    retrieval_done_at: float = 0.0
    resumed_at: float = 0.0
    rollback_iteration: Optional[int] = None
    source: Optional[RetrievalSource] = None
    from_cpu_memory: bool = False

    @property
    def total_overhead(self) -> float:
        """Failure to resumption, excluding lost training progress."""
        return self.resumed_at - self.failure_time

    def phase_intervals(self) -> Dict[str, "Tuple[float, float]"]:
        """Named absolute ``(start, end)`` windows of each phase.

        Consecutive phases tile ``[failure_time, resumed_at]`` exactly, so
        their durations sum to :attr:`total_overhead` — the invariant the
        observability layer's recovery spans rely on (Figure 14).
        """
        intervals: Dict[str, Tuple[float, float]] = {
            "detection": (self.failure_time, self.detected_at)
        }
        cursor = self.detected_at
        if self.replacement_done_at is not None:
            intervals["replacement"] = (cursor, self.replacement_done_at)
            cursor = self.replacement_done_at
        intervals["serialization"] = (cursor, self.serialization_done_at)
        intervals["retrieval"] = (self.serialization_done_at, self.retrieval_done_at)
        intervals["warmup"] = (self.retrieval_done_at, self.resumed_at)
        return intervals

    def phase_durations(self) -> Dict[str, float]:
        """Named phase lengths for reporting."""
        return {
            name: end - start for name, (start, end) in self.phase_intervals().items()
        }

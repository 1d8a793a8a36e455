"""Remote persistent storage (FSx-like).

The paper's remote tier: ~20 Gbps *aggregate* bandwidth shared by all
machines, so a full-model checkpoint write or retrieval is slow (42 min for
MT-NLG; 8+ min for GPT-2 100B) regardless of cluster size.  A checkpoint at
some iteration is only usable for recovery once **every rank's shard** has
landed (Figure 1's "incomplete third checkpoint").

Transfer timing is handled by attaching the store as a pseudo-machine on
the fabric (its NIC capacity is the aggregate bandwidth) so persistent
traffic uses the same fluid-flow machinery as everything else; this class
tracks *contents* and completeness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.units import gbps

#: Fabric node name for the persistent store.
PERSISTENT_NODE = "persistent-storage"

#: Aggregate bandwidth of the remote persistent storage (Section 7.1).
DEFAULT_PERSISTENT_BANDWIDTH = gbps(20)


class PersistentStore:
    """Contents and completeness tracking of the remote persistent tier.

    Parameters
    ----------
    num_ranks:
        Number of shards a checkpoint needs before it is complete.
    aggregate_bandwidth:
        Total read/write bandwidth in bytes/s, shared across machines.
    """

    def __init__(
        self,
        num_ranks: int,
        aggregate_bandwidth: float = DEFAULT_PERSISTENT_BANDWIDTH,
        obs=None,
    ):
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        if aggregate_bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {aggregate_bandwidth}")
        self.num_ranks = num_ranks
        self.aggregate_bandwidth = aggregate_bandwidth
        self._shards: Dict[int, Set[int]] = {}  # iteration -> ranks present
        self._obs = obs

    def _update_complete_gauge(self) -> None:
        if self._obs is None or not self._obs.enabled:
            return
        self._obs.metrics.gauge(
            "repro_persistent_complete_checkpoints",
            help="fully-landed checkpoints resident in persistent storage",
        ).set(len(self.complete_iterations()))

    # -- writes -----------------------------------------------------------------

    def write_time(self, nbytes: float) -> float:
        """Seconds to upload ``nbytes`` through the shared pipe."""
        return nbytes / self.aggregate_bandwidth

    def put_shard(self, rank: int, iteration: int) -> None:
        """Record that ``rank``'s shard for ``iteration`` has fully landed."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.num_ranks})")
        self._shards.setdefault(iteration, set()).add(rank)
        if self._obs is not None and self._obs.enabled:
            self._obs.metrics.counter(
                "repro_persistent_shard_puts_total",
                help="shard writes landed in persistent storage",
            ).inc()
            self._update_complete_gauge()

    # -- reads -------------------------------------------------------------------

    def has_shard(self, rank: int, iteration: int) -> bool:
        return rank in self._shards.get(iteration, set())

    def is_complete(self, iteration: int) -> bool:
        """True when all ranks' shards for ``iteration`` are present."""
        return len(self._shards.get(iteration, set())) == self.num_ranks

    def complete_iterations(self) -> List[int]:
        return sorted(it for it in self._shards if self.is_complete(it))

    def latest_complete(self) -> Optional[int]:
        """Latest fully-landed checkpoint iteration, or None if none yet."""
        complete = self.complete_iterations()
        return complete[-1] if complete else None

    # -- capacity management ----------------------------------------------------------

    def prune(self, keep_latest: int = 2) -> List[int]:
        """Drop all but the newest ``keep_latest`` complete checkpoints.

        Incomplete iterations newer than the newest complete one are kept
        (they may still be filling).  Returns the dropped iterations.
        """
        if keep_latest < 1:
            raise ValueError(f"keep_latest must be >= 1, got {keep_latest}")
        complete = self.complete_iterations()
        doomed = complete[:-keep_latest] if len(complete) > keep_latest else []
        newest_complete = complete[-1] if complete else None
        for iteration in list(self._shards):
            stale_incomplete = (
                not self.is_complete(iteration)
                and newest_complete is not None
                and iteration < newest_complete
            )
            if iteration in doomed or stale_incomplete:
                del self._shards[iteration]
                if iteration not in doomed:
                    doomed.append(iteration)
        self._update_complete_gauge()
        return sorted(doomed)

    def __repr__(self) -> str:
        return (
            f"<PersistentStore complete={self.complete_iterations()} "
            f"bw={self.aggregate_bandwidth / gbps(1):.0f}Gbps>"
        )

"""Per-machine CPU-memory checkpoint store.

Each machine keeps, for every shard it hosts (its own plus its placement
peers'), **two buffers**: one for the latest *completed* checkpoint and one
for the *ongoing* write (Section 7.1).  A write only becomes visible when
committed, so a failure mid-checkpoint always leaves the previous complete
checkpoint recoverable — the double-buffer is what makes per-iteration
checkpointing crash-consistent.

Contents live in the machine's CPU memory and are destroyed by hardware
failures (the store watches the machine's ``hardware_alive`` flag and its
incarnation epoch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.machine import Machine


@dataclass
class ReplicaSlot:
    """Double-buffered storage of one rank's checkpoint shard."""

    rank: int
    nbytes: float
    completed_iteration: Optional[int] = None
    in_progress_iteration: Optional[int] = None

    @property
    def reserved_bytes(self) -> float:
        """CPU memory held by this slot (two buffers)."""
        return 2 * self.nbytes


class CPUCheckpointStore:
    """Checkpoint shards held in one machine's CPU memory.

    Parameters
    ----------
    machine:
        The owning machine; memory is accounted against it and contents are
        invalidated when its hardware fails (tracked via the machine epoch).
    obs:
        Optional :class:`repro.obs.Observability`; commits count bytes and
        hosted-replica gauges per machine.
    """

    def __init__(self, machine: Machine, obs=None):
        self.machine = machine
        self._epoch = machine.epoch
        self._slots: Dict[int, ReplicaSlot] = {}
        self._obs = obs

    def _update_hosted_gauge(self) -> None:
        if self._obs is None or not self._obs.enabled:
            return
        self._obs.metrics.gauge(
            "repro_cpu_ckpt_hosted_replicas",
            help="checkpoint shards hosted in this machine's CPU memory",
            labels={"machine": self.machine.machine_id},
        ).set(len(self._slots))

    # -- validity --------------------------------------------------------------

    @property
    def valid(self) -> bool:
        """Contents survive only while the hardware incarnation is unchanged."""
        return self.machine.hardware_alive and self.machine.epoch == self._epoch

    def _check_valid(self) -> None:
        if not self.valid:
            raise RuntimeError(
                f"checkpoint store on {self.machine} is invalid "
                "(hardware failed or machine replaced)"
            )

    # -- slot management ----------------------------------------------------------

    def host_shard(self, rank: int, nbytes: float) -> ReplicaSlot:
        """Reserve double-buffered space for ``rank``'s shard."""
        self._check_valid()
        if rank in self._slots:
            raise ValueError(f"shard of rank {rank} already hosted on {self.machine}")
        if nbytes <= 0:
            raise ValueError(f"shard size must be > 0, got {nbytes}")
        slot = ReplicaSlot(rank=rank, nbytes=nbytes)
        self.machine.allocate_cpu_memory(
            slot.reserved_bytes, what=f"checkpoint buffers for rank {rank}"
        )
        self._slots[rank] = slot
        self._update_hosted_gauge()
        return slot

    def hosted_ranks(self) -> List[int]:
        return sorted(self._slots)

    def slot(self, rank: int) -> ReplicaSlot:
        try:
            return self._slots[rank]
        except KeyError:
            raise KeyError(f"rank {rank} not hosted on {self.machine}") from None

    # -- the write protocol --------------------------------------------------------

    def begin_write(self, rank: int, iteration: int) -> None:
        """Start filling the in-progress buffer for ``rank`` at ``iteration``."""
        self._check_valid()
        slot = self.slot(rank)
        if slot.in_progress_iteration is not None:
            raise RuntimeError(
                f"rank {rank} on {self.machine}: write for iteration "
                f"{slot.in_progress_iteration} still in progress"
            )
        if slot.completed_iteration is not None and iteration <= slot.completed_iteration:
            raise ValueError(
                f"rank {rank}: iteration {iteration} not newer than completed "
                f"{slot.completed_iteration}"
            )
        slot.in_progress_iteration = iteration

    def commit_write(self, rank: int, iteration: int) -> None:
        """Atomically promote the in-progress buffer to completed."""
        self._check_valid()
        slot = self.slot(rank)
        if slot.in_progress_iteration != iteration:
            raise RuntimeError(
                f"rank {rank}: commit for iteration {iteration} but in-progress "
                f"is {slot.in_progress_iteration}"
            )
        slot.completed_iteration = iteration
        slot.in_progress_iteration = None
        if self._obs is not None and self._obs.enabled:
            self._count_commit(slot.nbytes)

    def commit_all(self, iteration: int) -> None:
        """Write and commit ``iteration`` into every hosted slot older than it.

        The per-iteration checkpoint in one call per store: the same effect
        as ``begin_write`` + ``commit_write`` on each slot whose completed
        iteration is ``None`` or below ``iteration`` (newer slots are left
        alone), with the validity check done once.  A slot with a write
        still in progress raises, as ``begin_write`` would.
        """
        self._check_valid()
        counting = self._obs is not None and self._obs.enabled
        for slot in self._slots.values():
            completed = slot.completed_iteration
            if completed is not None and completed >= iteration:
                continue
            if slot.in_progress_iteration is not None:
                raise RuntimeError(
                    f"rank {slot.rank} on {self.machine}: write for iteration "
                    f"{slot.in_progress_iteration} still in progress"
                )
            slot.completed_iteration = iteration
            if counting:
                self._count_commit(slot.nbytes)

    def _count_commit(self, nbytes: float) -> None:
        metrics = self._obs.metrics
        metrics.counter(
            "repro_cpu_ckpt_commits_total",
            help="shard writes committed to CPU-memory stores",
        ).inc()
        metrics.counter(
            "repro_cpu_ckpt_bytes_total",
            help="bytes committed to CPU-memory checkpoint stores",
        ).inc(nbytes)

    def abort_write(self, rank: int) -> None:
        """Discard an in-progress write (e.g. sender died mid-transfer)."""
        self._check_valid()
        self.slot(rank).in_progress_iteration = None

    def settle_at_rollback(self, rollback: int) -> None:
        """Bring every hosted slot to the recovery's rollback iteration.

        In-progress writes are discarded and any slot whose completed
        iteration is missing or older than ``rollback`` now holds it (the
        retrieval phase restored it); newer completed slots are kept.
        """
        self._check_valid()
        for slot in self._slots.values():
            slot.in_progress_iteration = None
            completed = slot.completed_iteration
            if completed is None or completed < rollback:
                slot.completed_iteration = rollback

    def corrupt_shard(self, rank: int) -> None:
        """Silently lose both buffers of ``rank``'s shard (chaos hook).

        Models CPU-memory corruption or loss *without* a machine failure:
        the machine stays healthy and keeps its buffers reserved, but the
        replica no longer counts as complete, so a recovery planned while
        the damage persists must fall back per Section 6 (persistent
        storage if no other complete replica survives).  The next
        committed write repairs the slot — ``begin_write`` accepts any
        iteration once ``completed_iteration`` is ``None``.
        """
        self._check_valid()
        slot = self.slot(rank)
        slot.completed_iteration = None
        slot.in_progress_iteration = None

    # -- reads ------------------------------------------------------------------------

    def latest_complete(self, rank: int) -> Optional[int]:
        """Latest committed iteration for ``rank``, or None.

        Returns None (rather than raising) when the store is invalid, since
        "nothing recoverable here" is the semantic a recovery planner wants.
        """
        if not self.valid:
            return None
        slot = self._slots.get(rank)
        return slot.completed_iteration if slot else None

    def __repr__(self) -> str:
        state = "valid" if self.valid else "INVALID"
        return f"<CPUCheckpointStore {self.machine.machine_id} {state} ranks={self.hosted_ranks()}>"

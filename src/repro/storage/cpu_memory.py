"""Per-machine CPU-memory checkpoint store.

Each machine keeps, for every shard it hosts (its own plus its placement
peers'), **two buffers**: one for the latest *completed* checkpoint and one
for the *ongoing* write (Section 7.1).  A write only becomes visible when
committed, so a failure mid-checkpoint always leaves the previous complete
checkpoint recoverable — the double-buffer is what makes per-iteration
checkpointing crash-consistent.

Contents live in the machine's CPU memory and are destroyed by hardware
failures (the store watches the machine's incarnation epoch, which every
hardware failure bumps).

One policy's stores share a :class:`StorePlane`, whose watermark is the
iteration every *clean* store's hosted slots hold: a clean store keeps no
slot values of its own, so a cluster-wide commit raises one number.  A
store *diverges*, and holds explicit :class:`ReplicaSlot` values, as soon
as any of them may differ: a write starts on it, a shard is corrupted, it
is built mid-run (its slots start empty), or its machine went down (the
policy freezes it at the watermark before the next commit).  A diverged
store whose machine is healthy and whose slots all hold the watermark
again rejoins the clean ones.  A store built without a plane is always
diverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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


class StorePlane:
    """The shared state of one policy's CPU-memory stores.

    ``watermark`` is the running maximum of every cluster-wide commit and
    rollback settle: each hosted slot of a clean store holds it.
    ``diverged`` maps storer rank to the store of that rank that holds
    explicit slot values; a store built with the plane adds itself when
    it diverges and removes itself when it rejoins.
    """

    __slots__ = ("watermark", "diverged")

    def __init__(self):
        self.watermark: Optional[int] = None
        self.diverged: Dict[int, "CPUCheckpointStore"] = {}

    def advance(self, iteration: int) -> None:
        """Raise the watermark to ``iteration`` (never lower it)."""
        if self.watermark is None or iteration > self.watermark:
            self.watermark = iteration


class CPUCheckpointStore:
    """Checkpoint shards held in one machine's CPU memory.

    Parameters
    ----------
    machine:
        The owning machine; memory is accounted against it and contents are
        invalidated when its hardware fails (tracked via the machine epoch).
        A store built on a machine whose hardware is already dead is
        invalid from the start.
    obs:
        Optional :class:`repro.obs.Observability`; commits count bytes and
        hosted-replica gauges per machine.
    plane:
        The :class:`StorePlane` shared with the policy's other stores, or
        ``None`` for a store that always holds explicit slot values.  A
        store built before the plane's first commit starts clean; one
        built later starts diverged, its slots empty.
    """

    def __init__(self, machine: Machine, obs=None, plane: Optional[StorePlane] = None):
        self.machine = machine
        # -1 is never a machine epoch: a store built on dead hardware is
        # never valid.
        self._epoch = machine.epoch if machine.hardware_alive else -1
        self._slots: Dict[int, ReplicaSlot] = {}
        self._obs = obs
        self._plane = plane
        #: every hosted slot holds ``plane.watermark`` (no write open).
        self.clean = plane is not None and plane.watermark is None
        if plane is not None and not self.clean:
            plane.diverged[machine.rank] = self

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
        """Contents survive only while the hardware incarnation is unchanged.

        ``Machine.mark_failed`` is the only way out of ``hardware_alive``
        and it always bumps the epoch (``REPLACING`` follows a failure),
        so an unchanged epoch implies live hardware.
        """
        return self.machine.epoch == self._epoch

    def _check_valid(self) -> None:
        if not self.valid:
            raise RuntimeError(
                f"checkpoint store on {self.machine} is invalid "
                "(hardware failed or machine replaced)"
            )

    # -- clean and diverged ---------------------------------------------------------

    def diverge(self) -> None:
        """Give every hosted slot the value it implies, explicitly.

        A clean store's slots take the current watermark, and the store
        joins the plane's diverged ones; a diverged store is unchanged.
        The policy calls this for a store whose machine went down, so the
        next commit skips it; every write calls it first.
        """
        if not self.clean:
            return
        watermark = self._plane.watermark
        for slot in self._slots.values():
            slot.completed_iteration = watermark
        self.clean = False
        self._plane.diverged[self.machine.rank] = self

    def rejoin(self) -> None:
        """Become clean again if nothing sets this store apart any more.

        That is: the machine is healthy, the store is valid, no write is
        in progress and every hosted slot holds the watermark.
        """
        if self.clean or not self.machine.is_healthy or not self.valid:
            return
        watermark = self._plane.watermark
        for slot in self._slots.values():
            if (
                slot.completed_iteration != watermark
                or slot.in_progress_iteration is not None
            ):
                return
        self.clean = True
        del self._plane.diverged[self.machine.rank]

    # -- slot management ----------------------------------------------------------

    def host_shards(self, owners: Sequence[int], nbytes: float) -> List[ReplicaSlot]:
        """Reserve double-buffered space for each owner's shard, in order.

        An owner already hosted (or listed twice) raises ``ValueError``,
        and a shard that does not fit raises ``MemoryError``; either way
        the shards before it stay hosted, as one call per shard would
        leave them.  The hosted-replicas gauge is set once, if any shard
        was hosted.
        """
        self._check_valid()
        if nbytes <= 0:
            raise ValueError(f"shard size must be > 0, got {nbytes}")
        slots = self._slots
        allocate = self.machine.allocate_cpu_memory
        hosted = []
        try:
            for rank in owners:
                if rank in slots:
                    raise ValueError(
                        f"shard of rank {rank} already hosted on {self.machine}"
                    )
                slot = ReplicaSlot(rank=rank, nbytes=nbytes)
                allocate(slot.reserved_bytes, what=f"checkpoint buffers for rank {rank}")
                slots[rank] = slot
                hosted.append(slot)
        finally:
            if hosted:
                self._update_hosted_gauge()
        return hosted

    def host_shard(self, rank: int, nbytes: float) -> ReplicaSlot:
        """Reserve double-buffered space for ``rank``'s shard."""
        return self.host_shards((rank,), nbytes)[0]

    def hosted_ranks(self) -> List[int]:
        return sorted(self._slots)

    def slot(self, rank: int) -> ReplicaSlot:
        """``rank``'s slot, which the caller may write: the store diverges."""
        try:
            slot = self._slots[rank]
        except KeyError:
            raise KeyError(f"rank {rank} not hosted on {self.machine}") from None
        self.diverge()
        return slot

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
        self.diverge()
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

    def count_commits(self, iterations: Sequence[int]) -> None:
        """Count the commits of ``iterations`` without writing them.

        ``iterations`` ascend.  Each slot counts one commit per iteration
        newer than the one it holds, exactly as committing every
        iteration would have: a macro tick counts the commits it replays
        before the batch's final one, and a cluster-wide commit counts
        the slots of clean stores it advances through the watermark.
        """
        if self._obs is None or not self._obs.enabled:
            return
        for slot in self._slots.values():
            completed = (
                self._plane.watermark if self.clean else slot.completed_iteration
            )
            for iteration in iterations:
                if completed is None or iteration > completed:
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
        self.diverge()
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
        if slot is None:
            return None
        return self._plane.watermark if self.clean else slot.completed_iteration

    def __repr__(self) -> str:
        state = "valid" if self.valid else "INVALID"
        return f"<CPUCheckpointStore {self.machine.machine_id} {state} ranks={self.hosted_ranks()}>"

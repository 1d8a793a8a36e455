"""Machine and GPU models.

A :class:`Machine` is one training host: a fixed set of GPUs, a pool of CPU
memory with capacity accounting (in-memory checkpoints live here), and a
health state driven by the failure injector / cloud operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.cluster.instances import InstanceType
from repro.units import fmt_bytes


class MachineState(enum.Enum):
    """Lifecycle of a training machine."""

    HEALTHY = "healthy"
    #: Training process crashed (software failure); hardware intact.
    PROCESS_DOWN = "process_down"
    #: Hardware failure; the machine and its CPU memory contents are lost.
    FAILED = "failed"
    #: Removed from the cluster, replacement in flight.
    REPLACING = "replacing"


@dataclass
class GPU:
    """One accelerator: memory accounting for model state + ckpt buffers."""

    index: int
    memory_bytes: float
    used_bytes: float = 0.0

    @property
    def free_bytes(self) -> float:
        return self.memory_bytes - self.used_bytes

    def allocate(self, nbytes: float, what: str = "allocation") -> None:
        """Reserve GPU memory; raises MemoryError on OOM (paper Fig 5b/16)."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.used_bytes + nbytes > self.memory_bytes:
            raise MemoryError(
                f"GPU{self.index} out of memory: {what} needs "
                f"{fmt_bytes(nbytes)}, only {fmt_bytes(self.free_bytes)} free"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: float) -> None:
        """Release previously allocated GPU memory."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self.used_bytes + 1e-9:
            raise ValueError(
                f"GPU{self.index}: freeing {fmt_bytes(nbytes)} but only "
                f"{fmt_bytes(self.used_bytes)} allocated"
            )
        self.used_bytes = max(0.0, self.used_bytes - nbytes)


class Machine:
    """A training host machine.

    Parameters
    ----------
    machine_id:
        Stable unique id (survives nothing — a replacement machine gets a
        new id but inherits the failed machine's *rank*).
    rank:
        Training rank / position in the placement strategy, ``0..N-1``.
    instance_type:
        Hardware SKU from the catalog.
    position:
        Attachment point in the fabric topology (a
        :class:`repro.network.topology.Position`), or ``None`` on a flat
        fabric.  Like the rank, the position belongs to the *slot*: a
        replacement machine inherits it.
    """

    #: called, in registration order, each time the machine goes down
    #: (``mark_process_down`` or ``mark_failed``); GEMINI's agents listen
    #: here.  ``None`` until the first listener, so machines of a run
    #: without agents carry nothing.
    _down_listeners: Optional[List[Callable[[], None]]] = None
    #: the owning cluster's down set: each going-down adds this machine's
    #: rank to it before any listener runs, so ``Cluster.unhealthy_ranks``
    #: and the checkpoint stores' freeze find down ranks without scanning
    #: the cluster.  ``Cluster._new_machine`` sets it; ``None`` on a
    #: machine built outside a cluster.
    _down_ranks: Optional[Set[int]] = None

    def __init__(
        self,
        machine_id: str,
        rank: int,
        instance_type: InstanceType,
        position=None,
    ):
        self.machine_id = machine_id
        self.rank = rank
        self.instance_type = instance_type
        self.position = position
        self.state = MachineState.HEALTHY
        self._gpus: Optional[List[GPU]] = None
        self.cpu_memory_bytes = instance_type.cpu_memory_bytes
        self.cpu_memory_used = 0.0
        #: Incremented on every incarnation change; lets stale async events
        #: (e.g. a transfer completing after the machine died) detect staleness.
        self.epoch = 0

    @property
    def gpus(self) -> List[GPU]:
        """The machine's accelerators, built on first access: the
        simulation accounts checkpoints in CPU memory, so most machines
        never need them."""
        if self._gpus is None:
            self._gpus = [
                GPU(index=i, memory_bytes=self.instance_type.gpu_memory_bytes)
                for i in range(self.instance_type.num_gpus)
            ]
        return self._gpus

    # -- health -------------------------------------------------------------

    @property
    def is_healthy(self) -> bool:
        return self.state == MachineState.HEALTHY

    @property
    def hardware_alive(self) -> bool:
        """CPU memory contents survive software failures but not hardware ones."""
        return self.state in (MachineState.HEALTHY, MachineState.PROCESS_DOWN)

    def mark_process_down(self) -> None:
        """Software failure: the process dies, memory contents survive."""
        if self.state == MachineState.FAILED:
            raise RuntimeError(f"{self} is already hardware-failed")
        self.state = MachineState.PROCESS_DOWN
        self._went_down()

    def mark_failed(self) -> None:
        """Hardware failure: machine (and its CPU memory contents) are lost."""
        self.state = MachineState.FAILED
        self.epoch += 1
        self.cpu_memory_used = 0.0
        for gpu in self._gpus or ():
            gpu.used_bytes = 0.0
        self._went_down()

    def add_down_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` each time this machine goes down."""
        if self._down_listeners is None:
            self._down_listeners = []
        self._down_listeners.append(listener)

    def remove_down_listener(self, listener: Callable[[], None]) -> None:
        """Stop calling ``listener`` (no-op if it is not registered)."""
        if self._down_listeners and listener in self._down_listeners:
            self._down_listeners.remove(listener)

    def _went_down(self) -> None:
        if self._down_ranks is not None:
            self._down_ranks.add(self.rank)
        if self._down_listeners:
            for listener in list(self._down_listeners):
                listener()

    def restart_process(self) -> None:
        """Recover from a software failure in place.

        CPU-memory contents survive a process restart, so the incarnation
        epoch is deliberately NOT bumped.
        """
        if self.state != MachineState.PROCESS_DOWN:
            raise RuntimeError(f"cannot restart process of {self} in state {self.state}")
        self.state = MachineState.HEALTHY

    # -- CPU memory accounting ------------------------------------------------

    @property
    def cpu_memory_free(self) -> float:
        return self.cpu_memory_bytes - self.cpu_memory_used

    def allocate_cpu_memory(self, nbytes: float, what: str = "allocation") -> None:
        """Reserve host memory (checkpoint buffers); raises MemoryError on OOM."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.cpu_memory_used + nbytes > self.cpu_memory_bytes:
            raise MemoryError(
                f"{self} CPU memory exhausted: {what} needs {fmt_bytes(nbytes)}, "
                f"only {fmt_bytes(self.cpu_memory_free)} free"
            )
        self.cpu_memory_used += nbytes

    def free_cpu_memory(self, nbytes: float) -> None:
        """Release host memory."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self.cpu_memory_used + 1e-6:
            raise ValueError(
                f"{self}: freeing {fmt_bytes(nbytes)} but only "
                f"{fmt_bytes(self.cpu_memory_used)} allocated"
            )
        self.cpu_memory_used = max(0.0, self.cpu_memory_used - nbytes)

    def __repr__(self) -> str:
        return f"<Machine {self.machine_id} rank={self.rank} {self.state.value}>"

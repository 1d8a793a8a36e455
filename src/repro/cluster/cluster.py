"""The training cluster: a rank-indexed set of machines.

Ranks are stable training positions (``0..N-1``); machines fill ranks and
can be swapped out by the cloud operator after hardware failures, which is
exactly how the paper's recovery Case 1 works (replacement machines "reuse
their machine rank IDs", Section 6.2).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.catalog import ClusterSpec
from repro.cluster.instances import InstanceType
from repro.cluster.machine import Machine, MachineState


class Cluster:
    """N machines indexed by rank, optionally described by a ClusterSpec.

    Parameters
    ----------
    num_machines:
        Cluster size ``N`` (legacy path; also accepted alongside ``spec``
        as a consistency check).
    instance_type:
        Hardware SKU shared by all machines (the paper's homogeneous
        static-resource assumption; mutually exclusive with ``spec``).
    spec:
        A :class:`repro.cluster.catalog.ClusterSpec` describing a possibly
        heterogeneous composition plus a fabric topology.  Shapes and
        positions are properties of the *rank slot*, so replacements
        inherit them.  A flat homogeneous spec builds a cluster identical
        to the legacy path.
    """

    def __init__(
        self,
        num_machines: Optional[int] = None,
        instance_type: Optional[InstanceType] = None,
        *,
        spec: Optional[ClusterSpec] = None,
    ):
        if spec is not None:
            if instance_type is not None:
                raise ValueError("pass either spec or instance_type, not both")
            if num_machines is not None and num_machines != spec.num_machines:
                raise ValueError(
                    f"num_machines {num_machines} disagrees with spec "
                    f"{spec.name!r} ({spec.num_machines} machines)"
                )
            num_machines = spec.num_machines
            instance_type = spec.primary_instance_type()
        if num_machines is None or instance_type is None:
            raise TypeError("Cluster needs (num_machines, instance_type) or spec=")
        if num_machines < 1:
            raise ValueError(f"cluster needs >= 1 machine, got {num_machines}")
        self.spec = spec
        #: the primary shape (group 0 of the spec, or the single SKU).
        self.instance_type = instance_type
        #: ``(shape, position)`` per rank slot; replacements read it too.
        self._slots = (
            spec.rank_slots if spec is not None
            else ((instance_type, None),) * num_machines
        )
        self._id_counter = itertools.count()
        #: ranks that went down since last read healthy (a superset of the
        #: unhealthy ranks; :meth:`unhealthy_ranks` prunes it).
        self._down: Set[int] = set()
        #: filled in rank order; ``replace`` only reassigns a key, so the
        #: values stay in rank order.
        self._by_rank: Dict[int, Machine] = {}
        for rank in range(num_machines):
            self._by_rank[rank] = self._new_machine(rank)

    def _new_machine(self, rank: int) -> Machine:
        """Build the machine filling ``rank`` — shape and topology position
        come from the rank slot, so replacements inherit both."""
        instance_type, position = self._slots[rank]
        machine = Machine(
            f"m{next(self._id_counter):04d}", rank, instance_type, position=position
        )
        machine._down_ranks = self._down
        return machine

    # -- access ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks (constant over the training job)."""
        return len(self._by_rank)

    def machine(self, rank: int) -> Machine:
        """The machine currently holding ``rank``."""
        try:
            return self._by_rank[rank]
        except KeyError:
            raise KeyError(f"no rank {rank} in cluster of size {self.size}") from None

    def machines(self) -> List[Machine]:
        """All machines in rank order."""
        return list(self._by_rank.values())

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines())

    def __len__(self) -> int:
        return self.size

    def unhealthy_ranks(self) -> List[int]:
        """Ranks whose machines are not healthy, ascending.

        Machines only leave ``HEALTHY`` by going down, which adds their
        rank to the down set; ranks whose machine is healthy again
        (restarted or replaced) are pruned here, so the cost is the
        number of ranks down, not the cluster size.
        """
        down = self._down
        by_rank = self._by_rank
        for rank in [rank for rank in down if by_rank[rank].is_healthy]:
            down.discard(rank)
        return sorted(down)

    def healthy_ranks(self) -> List[int]:
        """Ranks whose machines are fully healthy."""
        down = set(self.unhealthy_ranks())
        return [rank for rank in self._by_rank if rank not in down]

    def failed_ranks(self) -> List[int]:
        """Ranks whose machines are hardware-failed or being replaced."""
        by_rank = self._by_rank
        return [
            rank
            for rank in self.unhealthy_ranks()
            if by_rank[rank].state in (MachineState.FAILED, MachineState.REPLACING)
        ]

    def fault_domains(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Rack-level fault domains from the spec topology, or None when flat
        (or when the cluster was built without a spec)."""
        if self.spec is None:
            return None
        return self.spec.fault_domains()

    def find_by_id(self, machine_id: str) -> Optional[Machine]:
        """Locate a machine by id, or None if it has been replaced away."""
        for machine in self._by_rank.values():
            if machine.machine_id == machine_id:
                return machine
        return None

    # -- replacement ------------------------------------------------------------

    def replace(self, rank: int) -> Machine:
        """Install a fresh machine at ``rank`` (cloud operator action).

        The failed machine keeps its object identity (so late events that
        captured it see a dead machine), while the cluster maps the rank to
        the replacement.
        """
        old = self.machine(rank)
        if old.hardware_alive:
            raise RuntimeError(f"refusing to replace healthy machine at rank {rank}")
        replacement = self._new_machine(rank)
        self._by_rank[rank] = replacement
        return replacement

    def __repr__(self) -> str:
        healthy = len(self.healthy_ranks())
        return (
            f"<Cluster {self.size}x{self.instance_type.name} "
            f"healthy={healthy}/{self.size}>"
        )

"""Machine-shape and cluster-topology catalog.

The paper evaluates GEMINI on homogeneous flat clusters (Table 1), but
real training fleets are neither: machines come in generations with very
different NIC/memory shapes, and they hang off racks and superblocks
whose uplinks are oversubscribed.  This module makes both axes explicit:

- a3mega/a3ultra/a4-style :class:`~repro.cluster.instances.InstanceType`
  profiles (H100/H200/B200-generation shapes) registered alongside the
  Table 1 SKUs, so ``--instance a3-megagpu-8g`` works everywhere;
- :class:`TopologySpec` — a declarative description of the interconnect
  (flat single-switch, rack-oversubscribed, superblock two-tier);
- :class:`ClusterSpec` — a frozen, hashable description of one concrete
  cluster: an ordered machine composition (possibly heterogeneous) plus
  a topology.  It replaces the implicit ``num_machines x InstanceType``
  constructor path: :class:`repro.cluster.cluster.Cluster` builds from
  it, :class:`repro.network.topology.Topology` objects are derived from
  it, and scenario hashing refers to it by catalog name;
- :data:`CLUSTER_CATALOG` — named presets for ``simulate --cluster`` and
  the sweep/campaign axes.

The flat default stays bit-exact with the legacy constructor path: a
flat homogeneous spec produces the same machines, the same NIC
bandwidths, and no transit links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cluster.instances import (
    INSTANCE_CATALOG,
    InstanceType,
    get_instance_type,
)
from repro.units import GB, gbps

if TYPE_CHECKING:
    from repro.network.topology import Position

__all__ = [
    "A3_MEGAGPU_8G",
    "A3_ULTRAGPU_8G",
    "A4_HIGHGPU_8G",
    "CLUSTER_CATALOG",
    "ClusterSpec",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "get_cluster_spec",
]


# -- machine shapes ------------------------------------------------------------
#
# Current-generation GPU machine profiles (GCP a3-mega / a3-ultra / a4
# style).  Numbers are representative of the public shapes: per-GPU HBM,
# host memory several times the aggregate HBM (the GEMINI premise), and
# per-generation NIC bandwidth jumps that make topology placement matter.

A3_MEGAGPU_8G = InstanceType(
    name="a3-megagpu-8g",
    cloud="GCP",
    gpu_model="H100",
    num_gpus=8,
    gpu_memory_bytes=80 * GB,
    cpu_memory_bytes=1872 * GB,
    network_bandwidth=gbps(1600),
    gpu_to_cpu_bandwidth=gbps(400),
    gpu_tflops=989.0,
)

A3_ULTRAGPU_8G = InstanceType(
    name="a3-ultragpu-8g",
    cloud="GCP",
    gpu_model="H200",
    num_gpus=8,
    gpu_memory_bytes=141 * GB,
    cpu_memory_bytes=2952 * GB,
    network_bandwidth=gbps(3200),
    gpu_to_cpu_bandwidth=gbps(512),
    gpu_tflops=989.0,
)

A4_HIGHGPU_8G = InstanceType(
    name="a4-highgpu-8g",
    cloud="GCP",
    gpu_model="B200",
    num_gpus=8,
    gpu_memory_bytes=180 * GB,
    cpu_memory_bytes=3968 * GB,
    network_bandwidth=gbps(3200),
    gpu_to_cpu_bandwidth=gbps(512),
    gpu_tflops=2250.0,
)

for _shape in (A3_MEGAGPU_8G, A3_ULTRAGPU_8G, A4_HIGHGPU_8G):
    INSTANCE_CATALOG[_shape.name] = _shape
del _shape


# -- topology spec -------------------------------------------------------------

#: interconnect kinds a spec may name.
TOPOLOGY_KINDS: Tuple[str, ...] = ("flat", "rack", "superblock")


@dataclass(frozen=True)
class TopologySpec:
    """Declarative interconnect description.

    - ``flat``: every machine one hop from an ideal core (the paper's
      implicit model; no transit links, bit-exact with the legacy path).
    - ``rack``: machines grouped into racks of ``rack_size``; cross-rack
      traffic shares a rack uplink/downlink pair whose capacity is the
      rack's aggregate NIC bandwidth divided by ``oversubscription``.
    - ``superblock``: two tiers — racks as above, plus ``racks_per_block``
      racks per block; cross-block traffic additionally crosses block
      uplinks oversubscribed by ``block_oversubscription``.
    """

    kind: str = "flat"
    rack_size: int = 0
    oversubscription: float = 1.0
    racks_per_block: int = 0
    block_oversubscription: float = 1.0

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; "
                f"valid choices: {', '.join(TOPOLOGY_KINDS)}"
            )
        if self.kind == "flat":
            if self.rack_size or self.racks_per_block:
                raise ValueError("flat topology takes no rack/block structure")
            return
        if self.rack_size < 1:
            raise ValueError(
                f"{self.kind} topology needs rack_size >= 1, got {self.rack_size}"
            )
        if self.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )
        if self.kind == "superblock":
            if self.racks_per_block < 1:
                raise ValueError(
                    "superblock topology needs racks_per_block >= 1, "
                    f"got {self.racks_per_block}"
                )
            if self.block_oversubscription < 1.0:
                raise ValueError(
                    "block_oversubscription must be >= 1, "
                    f"got {self.block_oversubscription}"
                )
        elif self.racks_per_block:
            raise ValueError("rack topology takes no racks_per_block")

    @property
    def is_flat(self) -> bool:
        return self.kind == "flat"

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-JSON form (stable key set)."""
        return {
            "kind": self.kind,
            "rack_size": self.rack_size,
            "oversubscription": self.oversubscription,
            "racks_per_block": self.racks_per_block,
            "block_oversubscription": self.block_oversubscription,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TopologySpec":
        return cls(**payload)


# -- cluster spec --------------------------------------------------------------


@dataclass(frozen=True)
class ClusterSpec:
    """One concrete cluster: ordered machine composition + interconnect.

    ``machines`` is a tuple of ``(instance type name, count)`` groups;
    ranks are assigned to groups in order, so rank 0..count0-1 get the
    first shape and so on.  A single-group flat spec is exactly the
    legacy ``num_machines x InstanceType`` cluster.
    """

    name: str
    machines: Tuple[Tuple[str, int], ...]
    topology: TopologySpec = field(default_factory=TopologySpec)

    def __post_init__(self):
        normalized = tuple(
            (str(shape), int(count)) for shape, count in self.machines
        )
        object.__setattr__(self, "machines", normalized)
        if not normalized:
            raise ValueError("a cluster spec needs at least one machine group")
        for shape, count in normalized:
            if count < 1:
                raise ValueError(f"machine group {shape!r} has count {count}")
            get_instance_type(shape)  # raises KeyError with options
        if not self.topology.is_flat:
            if self.num_machines % self.topology.rack_size != 0:
                raise ValueError(
                    f"rack_size {self.topology.rack_size} does not divide "
                    f"cluster size {self.num_machines}"
                )
            if self.topology.kind == "superblock":
                num_racks = self.num_machines // self.topology.rack_size
                if num_racks % self.topology.racks_per_block != 0:
                    raise ValueError(
                        f"racks_per_block {self.topology.racks_per_block} does "
                        f"not divide rack count {num_racks}"
                    )

    # -- the per-rank slot table -------------------------------------------------
    #
    # A rank's shape and fabric position never change: replacements
    # reuse their rank (Section 6.2).  So both are tabulated once, on
    # first use, and every per-rank query below reads the table.  The
    # cached values live in the instance ``__dict__`` and are not
    # dataclass fields, so ``==``, ``hash`` and ``to_dict`` ignore them.

    @cached_property
    def num_machines(self) -> int:
        return sum(count for _shape, count in self.machines)

    @cached_property
    def rank_slots(self) -> Tuple[Tuple[InstanceType, Optional["Position"]], ...]:
        """``(instance type, position)`` for every rank, in rank order.

        The position is a :class:`repro.network.topology.Position`, one
        object shared by the rack's members, or ``None`` on a flat fabric.
        """
        shapes = [
            get_instance_type(shape)
            for shape, count in self.machines
            for _ in range(count)
        ]
        if self.topology.is_flat:
            return tuple((shape, None) for shape in shapes)
        from repro.network.topology import Position

        size = self.topology.rack_size
        per_block = (
            self.topology.racks_per_block
            if self.topology.kind == "superblock"
            else 0
        )
        positions = [
            Position(rack=rack, block=rack // per_block if per_block else 0)
            for rack in range(self.num_machines // size)
        ]
        return tuple(
            (shape, positions[rank // size]) for rank, shape in enumerate(shapes)
        )

    def _slot(self, rank: int) -> Tuple[InstanceType, Optional["Position"]]:
        if not 0 <= rank < self.num_machines:
            raise KeyError(f"no rank {rank} in cluster of size {self.num_machines}")
        return self.rank_slots[rank]

    # -- composition -----------------------------------------------------------

    def instance_name_for_rank(self, rank: int) -> str:
        return self._slot(rank)[0].name

    def instance_for_rank(self, rank: int) -> InstanceType:
        """The hardware shape filling ``rank`` (stable across replacements)."""
        return self._slot(rank)[0]

    def primary_instance_type(self) -> InstanceType:
        """The first (largest-prefix) shape; used for workload planning."""
        return get_instance_type(self.machines[0][0])

    @property
    def is_heterogeneous(self) -> bool:
        return len({shape for shape, _count in self.machines}) > 1

    # -- topology --------------------------------------------------------------

    @property
    def num_racks(self) -> int:
        if self.topology.is_flat:
            return 0
        return self.num_machines // self.topology.rack_size

    def rack_of(self, rank: int) -> Optional[int]:
        """The rack holding ``rank``, or ``None`` on a flat fabric."""
        position = self._slot(rank)[1]
        return None if position is None else position.rack

    def block_of(self, rank: int) -> Optional[int]:
        """The superblock holding ``rank``, or ``None`` off two-tier fabrics."""
        position = self._slot(rank)[1]
        if position is None or self.topology.kind != "superblock":
            return None
        return position.block

    def position_for_rank(self, rank: int) -> Optional["Position"]:
        """The machine's fabric attachment point (``None`` on flat)."""
        return self._slot(rank)[1]

    @cached_property
    def rack_members(self) -> Tuple[Tuple[int, ...], ...]:
        """Ranks grouped by rack (empty tuple on a flat fabric)."""
        if self.topology.is_flat:
            return ()
        size = self.topology.rack_size
        return tuple(
            tuple(range(start, start + size))
            for start in range(0, self.num_machines, size)
        )

    def fault_domains(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Co-failing rank groups (racks), or ``None`` on a flat fabric."""
        return self.rack_members or None

    def build_topology(self):
        """Materialize the :class:`repro.network.topology.Topology` object.

        Rack uplink capacity is the rack's aggregate member NIC bandwidth
        divided by the oversubscription ratio (1:1 means the uplink can
        carry every member NIC at line rate); block uplinks divide the
        block's aggregate rack-uplink capacity the same way.
        """
        from repro.network.topology import (
            FlatTopology,
            RackTopology,
            SuperblockTopology,
        )

        if self.topology.is_flat:
            return FlatTopology()
        rack_capacities: Dict[int, float] = {}
        slots = self.rank_slots
        for rack, members in enumerate(self.rack_members):
            aggregate = sum(slots[rank][0].network_bandwidth for rank in members)
            rack_capacities[rack] = aggregate / self.topology.oversubscription
        if self.topology.kind == "rack":
            return RackTopology(rack_capacities)
        per_block = self.topology.racks_per_block
        rack_to_block = {rack: rack // per_block for rack in rack_capacities}
        block_capacities: Dict[int, float] = {}
        for rack in sorted(rack_capacities):
            block = rack_to_block[rack]
            block_capacities[block] = (
                block_capacities.get(block, 0.0) + rack_capacities[rack]
            )
        for block in sorted(block_capacities):
            block_capacities[block] /= self.topology.block_oversubscription
        return SuperblockTopology(rack_capacities, rack_to_block, block_capacities)

    # -- identity --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-JSON form; ``from_dict`` round-trips it."""
        return {
            "name": self.name,
            "machines": [list(group) for group in self.machines],
            "topology": self.topology.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusterSpec":
        kwargs = dict(payload)
        kwargs["machines"] = tuple(tuple(group) for group in kwargs["machines"])
        if isinstance(kwargs.get("topology"), dict):
            kwargs["topology"] = TopologySpec.from_dict(kwargs["topology"])
        return cls(**kwargs)

    @classmethod
    def homogeneous(
        cls,
        name: str,
        instance: str,
        num_machines: int,
        topology: Optional[TopologySpec] = None,
    ) -> "ClusterSpec":
        """Convenience constructor for single-shape clusters."""
        return cls(
            name=name,
            machines=((instance, num_machines),),
            topology=topology or TopologySpec(),
        )

    def __repr__(self) -> str:
        shapes = "+".join(f"{count}x{shape}" for shape, count in self.machines)
        return f"<ClusterSpec {self.name} {shapes} {self.topology.kind}>"


# -- named presets -------------------------------------------------------------

_PRESETS: List[ClusterSpec] = [
    # The legacy default cluster, expressed as a spec: byte-identical
    # simulation results to the implicit constructor path.
    ClusterSpec.homogeneous("p4d-flat16", "p4d.24xlarge", 16),
    ClusterSpec.homogeneous("a4-flat8", "a4-highgpu-8g", 8),
    ClusterSpec.homogeneous(
        "a3mega-rack4x4",
        "a3-megagpu-8g",
        16,
        TopologySpec(kind="rack", rack_size=4, oversubscription=4.0),
    ),
    ClusterSpec.homogeneous(
        "a3mega-rack4x4-1to8",
        "a3-megagpu-8g",
        16,
        TopologySpec(kind="rack", rack_size=4, oversubscription=8.0),
    ),
    ClusterSpec.homogeneous(
        "a3ultra-superblock32",
        "a3-ultragpu-8g",
        32,
        TopologySpec(
            kind="superblock",
            rack_size=4,
            oversubscription=2.0,
            racks_per_block=4,
            block_oversubscription=4.0,
        ),
    ),
    # Heterogeneous fleet: two machine generations sharing racks — the
    # replacement-inheritance regression surface.
    ClusterSpec(
        name="mixed-a3-rack4x4",
        machines=(("a3-megagpu-8g", 8), ("a3-ultragpu-8g", 8)),
        topology=TopologySpec(kind="rack", rack_size=4, oversubscription=4.0),
    ),
    # The a3mega rack shape scaled to a 1k-machine fleet (64 racks of
    # 16): the nightly fleet-scale chaos campaign and the churn_1k
    # benchmark both lean on this spec.
    ClusterSpec.homogeneous(
        "a3mega-fleet1k",
        "a3-megagpu-8g",
        1024,
        TopologySpec(kind="rack", rack_size=16, oversubscription=4.0),
    ),
]

CLUSTER_CATALOG: Dict[str, ClusterSpec] = {spec.name: spec for spec in _PRESETS}


def get_cluster_spec(name: str) -> ClusterSpec:
    """Look up a cluster spec by catalog name (raises KeyError with options)."""
    try:
        return CLUSTER_CATALOG[name]
    except KeyError:
        options = ", ".join(sorted(CLUSTER_CATALOG))
        raise KeyError(f"unknown cluster spec {name!r}; known: {options}") from None

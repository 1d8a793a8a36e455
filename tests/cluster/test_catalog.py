"""Machine/cluster catalog: ClusterSpec, TopologySpec, and the presets."""

import dataclasses

import pytest

from repro.cluster import (
    CLUSTER_CATALOG,
    Cluster,
    ClusterSpec,
    TopologySpec,
    get_cluster_spec,
    get_instance_type,
)
from repro.network.topology import (
    FlatTopology,
    Position,
    RackTopology,
    SuperblockTopology,
)
from repro.units import gbps


class TestTopologySpec:
    def test_flat_default(self):
        spec = TopologySpec()
        assert spec.is_flat
        assert spec.kind == "flat"

    def test_flat_rejects_structure(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="flat", rack_size=4)

    def test_rack_requires_rack_size(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="rack")

    def test_rack_oversubscription_below_one(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="rack", rack_size=4, oversubscription=0.5)

    def test_superblock_requires_racks_per_block(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="superblock", rack_size=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="torus")

    def test_round_trip(self):
        spec = TopologySpec(kind="rack", rack_size=4, oversubscription=4.0)
        assert TopologySpec.from_dict(spec.to_dict()) == spec


class TestClusterSpec:
    def test_homogeneous_shapes(self):
        spec = ClusterSpec.homogeneous("t", "p4d.24xlarge", 8)
        assert spec.num_machines == 8
        assert not spec.is_heterogeneous
        assert spec.instance_name_for_rank(7) == "p4d.24xlarge"
        assert spec.topology.is_flat

    def test_heterogeneous_rank_to_shape(self):
        spec = get_cluster_spec("mixed-a3-rack4x4")
        assert spec.is_heterogeneous
        assert spec.instance_name_for_rank(0) == "a3-megagpu-8g"
        assert spec.instance_name_for_rank(7) == "a3-megagpu-8g"
        assert spec.instance_name_for_rank(8) == "a3-ultragpu-8g"
        assert spec.instance_name_for_rank(15) == "a3-ultragpu-8g"
        with pytest.raises(KeyError):
            spec.instance_name_for_rank(16)

    def test_rack_and_block_of(self):
        spec = get_cluster_spec("a3ultra-superblock32")
        assert spec.num_racks == 8
        assert spec.rack_of(0) == 0
        assert spec.rack_of(31) == 7
        assert spec.block_of(0) == 0
        assert spec.block_of(31) == 1
        flat = get_cluster_spec("p4d-flat16")
        assert flat.rack_of(3) is None
        assert flat.fault_domains() is None

    def test_rack_size_must_divide(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                name="bad",
                machines=(("p4d.24xlarge", 10),),
                topology=TopologySpec(kind="rack", rack_size=4),
            )

    def test_fault_domains_are_rack_members(self):
        spec = get_cluster_spec("a3mega-rack4x4")
        assert spec.fault_domains() == (
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
        )

    def test_round_trip(self):
        for name in CLUSTER_CATALOG:
            spec = get_cluster_spec(name)
            assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="a3mega-rack4x4"):
            get_cluster_spec("no-such-cluster")

    def test_build_topology_kinds(self):
        assert isinstance(
            get_cluster_spec("p4d-flat16").build_topology(), FlatTopology
        )
        assert isinstance(
            get_cluster_spec("a3mega-rack4x4").build_topology(), RackTopology
        )
        assert isinstance(
            get_cluster_spec("a3ultra-superblock32").build_topology(),
            SuperblockTopology,
        )

    def test_uplink_capacity_honors_oversubscription(self):
        # 4 machines/rack at 1600 Gbps NIC, 1:4 -> uplink = 4*1600/4 Gbps.
        topo = get_cluster_spec("a3mega-rack4x4").build_topology()
        up = {link.name: link.capacity for link in topo.links()}
        assert up["rack000.up"] == pytest.approx(gbps(1600.0))
        eight = get_cluster_spec("a3mega-rack4x4-1to8").build_topology()
        up8 = {link.name: link.capacity for link in eight.links()}
        assert up8["rack000.up"] == pytest.approx(gbps(800.0))


class TestHeterogeneousCluster:
    def test_machines_get_spec_shapes_and_positions(self):
        spec = get_cluster_spec("mixed-a3-rack4x4")
        cluster = Cluster(spec=spec)
        assert cluster.machine(0).instance_type.name == "a3-megagpu-8g"
        assert cluster.machine(8).instance_type.name == "a3-ultragpu-8g"
        assert cluster.machine(0).position.rack == 0
        assert cluster.machine(15).position.rack == 3
        assert cluster.fault_domains() == spec.fault_domains()

    def test_spec_and_instance_type_mutually_exclusive(self):
        spec = get_cluster_spec("p4d-flat16")
        with pytest.raises(ValueError):
            Cluster(16, get_instance_type("p4d.24xlarge"), spec=spec)

    def test_num_machines_consistency_check(self):
        with pytest.raises(ValueError):
            Cluster(8, spec=get_cluster_spec("p4d-flat16"))

    def test_legacy_path_unchanged(self):
        cluster = Cluster(4, get_instance_type("p4d.24xlarge"))
        assert cluster.spec is None
        assert cluster.machine(0).position is None
        assert cluster.fault_domains() is None

    def test_replace_inherits_shape_and_position(self):
        # The satellite regression: on a heterogeneous cluster, a
        # replacement at rank r must get rank r's catalog shape and
        # topology position — not the primary shape or a blank slot.
        spec = get_cluster_spec("mixed-a3-rack4x4")
        cluster = Cluster(spec=spec)
        for rank in (0, 8, 15):
            old = cluster.machine(rank)
            old.mark_failed()
            fresh = cluster.replace(rank)
            assert fresh is not old
            assert fresh.machine_id != old.machine_id
            assert fresh.instance_type is old.instance_type
            assert fresh.position == old.position
            assert fresh.position.rack == spec.rack_of(rank)


# -- the per-rank slot table ----------------------------------------------------
#
# Reference formulas: the per-call arithmetic the table replaced.  Each
# table-backed query must return exactly what these return.


def _ref_num_machines(spec):
    return sum(count for _shape, count in spec.machines)


def _ref_check(spec, rank):
    if not 0 <= rank < _ref_num_machines(spec):
        raise KeyError(
            f"no rank {rank} in cluster of size {_ref_num_machines(spec)}"
        )


def _ref_instance(spec, rank):
    _ref_check(spec, rank)
    offset = 0
    for shape, count in spec.machines:
        if rank < offset + count:
            return get_instance_type(shape)
        offset += count


def _ref_rack(spec, rank):
    _ref_check(spec, rank)
    if spec.topology.is_flat:
        return None
    return rank // spec.topology.rack_size


def _ref_block(spec, rank):
    rack = _ref_rack(spec, rank)
    if rack is None or spec.topology.kind != "superblock":
        return None
    return rack // spec.topology.racks_per_block


def _ref_position(spec, rank):
    rack = _ref_rack(spec, rank)
    if rack is None:
        return None
    return Position(rack=rack, block=_ref_block(spec, rank) or 0)


def _ref_fault_domains(spec):
    if spec.topology.is_flat:
        return None
    size = spec.topology.rack_size
    return tuple(
        tuple(range(start, start + size))
        for start in range(0, _ref_num_machines(spec), size)
    )


def _ref_link_capacities(spec):
    if spec.topology.is_flat:
        return {}
    rack_capacities = {}
    for rack, members in enumerate(_ref_fault_domains(spec)):
        aggregate = sum(
            _ref_instance(spec, rank).network_bandwidth for rank in members
        )
        rack_capacities[rack] = aggregate / spec.topology.oversubscription
    if spec.topology.kind == "rack":
        topology = RackTopology(rack_capacities)
    else:
        per_block = spec.topology.racks_per_block
        rack_to_block = {rack: rack // per_block for rack in rack_capacities}
        block_capacities = {}
        for rack in sorted(rack_capacities):
            block = rack_to_block[rack]
            block_capacities[block] = (
                block_capacities.get(block, 0.0) + rack_capacities[rack]
            )
        for block in sorted(block_capacities):
            block_capacities[block] /= spec.topology.block_oversubscription
        topology = SuperblockTopology(
            rack_capacities, rack_to_block, block_capacities
        )
    return {link.name: link.capacity for link in topology.links()}


_TABLE_SPECS = [
    *CLUSTER_CATALOG.values(),
    # Three shapes whose group boundaries fall inside racks.
    ClusterSpec(
        name="test-hetero-rack",
        machines=(
            ("p4d.24xlarge", 3),
            ("a3-megagpu-8g", 7),
            ("a4-highgpu-8g", 2),
        ),
        topology=TopologySpec(kind="rack", rack_size=4, oversubscription=3.0),
    ),
    # A heterogeneous two-tier fabric: 3 blocks of 2 racks of 2.
    ClusterSpec(
        name="test-hetero-superblock",
        machines=(("a3-ultragpu-8g", 5), ("a3-megagpu-8g", 7)),
        topology=TopologySpec(
            kind="superblock",
            rack_size=2,
            oversubscription=1.5,
            racks_per_block=2,
            block_oversubscription=3.0,
        ),
    ),
]


@pytest.mark.parametrize("spec", _TABLE_SPECS, ids=lambda spec: spec.name)
class TestSlotTable:
    def test_per_rank_queries_match_the_formulas(self, spec):
        n = _ref_num_machines(spec)
        assert spec.num_machines == n
        assert len(spec.rank_slots) == n
        for rank in range(n):
            assert spec.instance_for_rank(rank) is _ref_instance(spec, rank)
            assert spec.instance_name_for_rank(rank) == _ref_instance(spec, rank).name
            assert spec.rack_of(rank) == _ref_rack(spec, rank)
            assert spec.block_of(rank) == _ref_block(spec, rank)
            assert spec.position_for_rank(rank) == _ref_position(spec, rank)
            assert spec.rank_slots[rank] == (
                _ref_instance(spec, rank),
                _ref_position(spec, rank),
            )

    def test_rack_members_share_one_position(self, spec):
        for members in spec.fault_domains() or ():
            positions = {id(spec.position_for_rank(rank)) for rank in members}
            assert len(positions) == 1

    def test_fault_domains_and_links_match_the_formulas(self, spec):
        assert spec.fault_domains() == _ref_fault_domains(spec)
        assert spec.rack_members == (_ref_fault_domains(spec) or ())
        links = {
            link.name: link.capacity for link in spec.build_topology().links()
        }
        # Exact: the table sums member bandwidths in the same order.
        assert links == _ref_link_capacities(spec)

    def test_out_of_range_ranks_raise_the_same_key_error(self, spec):
        n = spec.num_machines
        for rank in (-1, n, n + 7):
            with pytest.raises(KeyError) as expected:
                _ref_check(spec, rank)
            for query in (
                spec.instance_for_rank,
                spec.instance_name_for_rank,
                spec.rack_of,
                spec.block_of,
                spec.position_for_rank,
            ):
                with pytest.raises(KeyError) as got:
                    query(rank)
                assert got.value.args == expected.value.args

    def test_identity_ignores_the_cached_table(self, spec):
        fresh = ClusterSpec.from_dict(spec.to_dict())
        assert "rank_slots" not in vars(fresh)
        warm = ClusterSpec.from_dict(spec.to_dict())
        warm.rank_slots, warm.fault_domains()
        assert "rank_slots" in vars(warm)
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert warm.to_dict() == fresh.to_dict() == spec.to_dict()
        # A copy with other fields derives its own table.
        assert "rank_slots" not in vars(dataclasses.replace(warm, name="other"))

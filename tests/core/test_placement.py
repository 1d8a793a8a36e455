"""Algorithm 1: group/ring/mixed placement strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import (
    PlacementStrategy,
    algorithm1,
    group_placement,
    mixed_placement,
    resolve_placement,
    ring_placement,
    topology_aware_placement,
)
from repro.cluster import P4D_24XLARGE
from repro.core.policy import GeminiConfig
from repro.core.system import GeminiSystem
from repro.experiments.scenario import Scenario
from repro.frontier import reft_placement
from repro.obs import Observability
from repro.training import GPT2_100B
from repro.units import DAY


class TestGroupPlacement:
    def test_figure3a_example(self):
        # N=4, m=2: two groups {0,1}, {2,3}.
        placement = group_placement(4, 2)
        assert placement.groups == ((0, 1), (2, 3))
        assert placement.storers_of(0) == frozenset({0, 1})
        assert placement.storers_of(3) == frozenset({2, 3})

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            group_placement(5, 2)

    def test_every_machine_stores_local_replica(self):
        placement = group_placement(16, 4)
        for rank in range(16):
            assert rank in placement.storers_of(rank)

    def test_each_machine_hosts_exactly_m_shards(self):
        placement = group_placement(16, 4)
        assert placement.max_replicas_per_machine() == 4

    def test_sends_are_m_minus_1(self):
        placement = group_placement(16, 4)
        assert placement.checkpoint_sends_per_machine() == 3


class TestRingPlacement:
    def test_figure3b_example(self):
        # N=4, m=2: each machine stores on itself and its right neighbour.
        placement = ring_placement(4, 2)
        assert placement.storers_of(0) == frozenset({0, 1})
        assert placement.storers_of(3) == frozenset({3, 0})

    def test_wraparound(self):
        placement = ring_placement(5, 3)
        assert placement.storers_of(4) == frozenset({4, 0, 1})

    def test_any_n_m_combination_allowed(self):
        placement = ring_placement(7, 3)
        assert placement.max_replicas_per_machine() == 3

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            ring_placement(3, 4)


class TestMixedPlacement:
    def test_divisible_reduces_to_group(self):
        placement = mixed_placement(16, 2)
        assert placement.strategy is PlacementStrategy.GROUP

    def test_figure3c_example(self):
        # N=5, m=2: group {0,1} + ring {2,3,4}.
        placement = mixed_placement(5, 2)
        assert placement.strategy is PlacementStrategy.MIXED
        assert placement.groups == ((0, 1), (2, 3, 4))
        assert placement.storers_of(0) == frozenset({0, 1})
        assert placement.storers_of(2) == frozenset({2, 3})
        assert placement.storers_of(4) == frozenset({4, 2})

    def test_last_group_size_between_m_plus_1_and_2m_minus_1(self):
        for n in range(5, 40):
            for m in range(2, 6):
                if m >= n or n % m == 0:
                    continue
                placement = mixed_placement(n, m)
                last = placement.groups[-1]
                assert m + 1 <= len(last) <= 2 * m - 1

    def test_algorithm1_interface(self):
        groups, strategy = algorithm1(5, 2)
        assert groups == [[0, 1], [2, 3, 4]]
        assert strategy == "mixed"
        groups, strategy = algorithm1(4, 2)
        assert strategy == "group"

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_placement(4, 0)
        with pytest.raises(ValueError):
            mixed_placement(4, 5)


class TestRecoverability:
    def test_group_placement_figure3_failure_cases(self):
        # Paper Section 4: with group placement on N=4/m=2, only 2 of the
        # 6 two-machine failure sets are unrecoverable; with ring, 4 are.
        group = group_placement(4, 2)
        ring = ring_placement(4, 2)
        from itertools import combinations

        group_losses = sum(
            1 for pair in combinations(range(4), 2) if not group.recoverable(pair)
        )
        ring_losses = sum(
            1 for pair in combinations(range(4), 2) if not ring.recoverable(pair)
        )
        assert group_losses == 2
        assert ring_losses == 4

    def test_fewer_than_m_failures_always_recoverable(self):
        placement = mixed_placement(10, 3)
        for rank in range(10):
            assert placement.recoverable([rank])
        assert placement.recoverable([0, 5])

    def test_lost_shards_identifies_owner(self):
        placement = group_placement(4, 2)
        assert placement.lost_shards([0, 1]) == [0, 1]
        assert placement.lost_shards([0, 2]) == []

    def test_unknown_rank_in_failure_set(self):
        placement = group_placement(4, 2)
        with pytest.raises(ValueError):
            placement.recoverable([99])


class TestPlacementProperties:
    @given(
        n=st.integers(min_value=2, max_value=40),
        m=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_any_n_m(self, n, m):
        if m > n:
            return
        placement = mixed_placement(n, m)
        # Every shard has exactly m replicas, one of them local.
        for rank in range(n):
            storers = placement.storers_of(rank)
            assert len(storers) == m
            assert rank in storers
        # Groups partition the machines.
        seen = [rank for group in placement.groups for rank in group]
        assert sorted(seen) == list(range(n))
        # Storage is balanced: every machine hosts exactly m shards.
        assert placement.max_replicas_per_machine() == m


def scan_hosted_by(placement, rank):
    """Brute-force ``hosted_by``: scan every owner's replica set."""
    return [
        owner
        for owner, storers in enumerate(placement.replica_sets)
        if rank in storers
    ]


@st.composite
def placements(draw):
    """Any placement the system builds: group, ring, mixed, topology, REFT."""
    kind = draw(st.sampled_from(["group", "ring", "mixed", "topology", "reft"]))
    m = draw(st.integers(min_value=1, max_value=5))
    if kind == "reft":
        tp = draw(st.integers(min_value=1, max_value=3))
        pp = draw(st.integers(min_value=1, max_value=3))
        dp = draw(st.integers(min_value=m, max_value=6))
        return reft_placement(dp * tp * pp, m, tensor_parallel=tp, pipeline_parallel=pp)
    if kind == "group":
        return group_placement(m * draw(st.integers(min_value=1, max_value=12)), m)
    n = draw(st.integers(min_value=m, max_value=48))
    if kind == "ring":
        return ring_placement(n, m)
    if kind == "mixed":
        return mixed_placement(n, m)
    # Topology: a random assignment of ranks to up to 6 fault domains.
    labels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    domains = [[r for r in range(n) if labels[r] == d] for d in range(6)]
    return topology_aware_placement(n, m, [d for d in domains if d])


class TestHostedByIndex:
    @given(placement=placements())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan_in_order(self, placement):
        n = placement.num_machines
        for rank in range(-1, n + 2):
            assert placement.hosted_by(rank) == scan_hosted_by(placement, rank)

    @given(placement=placements())
    @settings(max_examples=200, deadline=None)
    def test_exact_inverse_of_storers_of(self, placement):
        n = placement.num_machines
        forward = {
            (storer, owner)
            for owner in range(n)
            for storer in placement.storers_of(owner)
        }
        backward = {
            (storer, owner)
            for storer in range(n)
            for owner in placement.hosted_by(storer)
        }
        assert forward == backward
        # No duplicates either: each pair appears once.
        assert sum(len(placement.hosted_by(r)) for r in range(n)) == len(forward)

    def test_returns_a_fresh_list(self):
        placement = mixed_placement(5, 2)
        placement.hosted_by(2).append(99)
        assert placement.hosted_by(2) == scan_hosted_by(placement, 2)

    def test_index_is_not_part_of_equality_or_repr(self):
        assert mixed_placement(9, 2) == mixed_placement(9, 2)
        assert hash(mixed_placement(9, 2)) == hash(mixed_placement(9, 2))
        assert "_hosted" not in repr(mixed_placement(9, 2))


RACKS_4X4 = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))


class TestTopologyAwarePlacement:
    def test_groups_span_domains(self):
        # 16 machines, m=2, 4 racks of 4: every replica pair must straddle
        # two racks, so losing any one rack leaves a replica of everything.
        placement = topology_aware_placement(16, 2, RACKS_4X4)
        assert placement.strategy is PlacementStrategy.TOPOLOGY
        rack_of = {r: i for i, d in enumerate(RACKS_4X4) for r in d}
        for group in placement.groups:
            assert len({rack_of[r] for r in group}) == len(group)
        for domain in RACKS_4X4:
            assert placement.recoverable(list(domain))

    def test_rack_aligned_group_placement_is_the_foil(self):
        # The same loss kills Theorem 1's group placement outright.
        placement = group_placement(16, 2)
        assert not placement.recoverable([0, 1, 2, 3])

    def test_keeps_placement_invariants(self):
        placement = topology_aware_placement(16, 3, RACKS_4X4)
        for rank in range(16):
            replica_set = placement.storers_of(rank)
            assert rank in replica_set
            assert len(replica_set) == 3

    def test_remainder_falls_into_ring(self):
        # 10 machines, m=3: two full groups + a 4-member ring (same group
        # structure as Algorithm 1), but over the interleaved ordering.
        domains = ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
        placement = topology_aware_placement(10, 3, domains)
        sizes = sorted(len(g) for g in placement.groups)
        assert sizes == sorted(len(g) for g in mixed_placement(10, 3).groups)
        assert sizes == [3, 3, 4]

    def test_domains_must_partition(self):
        with pytest.raises(ValueError, match="partition"):
            topology_aware_placement(8, 2, ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="partition"):
            topology_aware_placement(4, 2, ((0, 1), (1, 2, 3)))

    def test_resolve_dispatch(self):
        assert resolve_placement("group", 8, 2).strategy is (
            PlacementStrategy.GROUP
        )
        assert resolve_placement("ring", 8, 2).strategy is (
            PlacementStrategy.RING
        )
        assert resolve_placement("mixed", 9, 2).strategy is (
            PlacementStrategy.MIXED
        )
        with_domains = resolve_placement(
            "topology", 16, 2, domains=RACKS_4X4
        )
        assert with_domains.strategy is PlacementStrategy.TOPOLOGY
        # No domains (flat fabric) degrades to the paper's mixed placement.
        flat = resolve_placement("topology", 16, 2, domains=None)
        assert flat == mixed_placement(16, 2)
        with pytest.raises(ValueError):
            resolve_placement("hilbert", 8, 2)


class TestSharedPlacement:
    """``resolve_placement`` memoizes: equal arguments share one object."""

    def test_equal_arguments_share_one_placement(self):
        assert resolve_placement("mixed", 9, 2) is resolve_placement("mixed", 9, 2)
        domains = [[0, 1, 2, 3], [4, 5, 6, 7]]
        as_lists = resolve_placement("topology", 8, 2, domains=domains)
        as_tuples = resolve_placement(
            "topology", 8, 2, domains=tuple(tuple(d) for d in domains)
        )
        assert as_lists is as_tuples
        assert as_lists == topology_aware_placement(8, 2, domains)
        # Without domains "topology" degrades to an equal mixed placement.
        assert resolve_placement("topology", 8, 2) == resolve_placement("mixed", 8, 2)

    def test_placement_is_frozen(self):
        placement = resolve_placement("group", 8, 2)
        with pytest.raises(AttributeError):
            placement.num_replicas = 3
        # Callers get copies of the hosted index, never the shared one.
        placement.hosted_by(0).append(99)
        assert placement.hosted_by(0) == [0, 1]

    def test_bad_arguments_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                resolve_placement("mixed", 4, 5)


SHARED_SCENARIO = Scenario(
    name="shared-placement",
    policy="gemini",
    cluster="a3mega-rack4x4",
    num_machines=16,
    policy_kwargs={"placement_strategy": "topology", "use_agents": False},
    failures_per_day=96.0,
    software_fraction=0.5,
    horizon_days=0.1,
    seeds=(0,),
)


def _run(built):
    system, _injector = built
    result = system.run(SHARED_SCENARIO.horizon_days * DAY)
    return result, system.trace.to_jsonl()


class TestPlacementSharedAcrossSystems:
    def test_systems_from_one_scenario_share_the_placement(self):
        first, _ = SHARED_SCENARIO.build_system(0)
        second, _ = SHARED_SCENARIO.build_system(1)
        assert first.policy.placement is second.policy.placement

    def test_results_do_not_depend_on_build_or_run_order(self):
        alone = _run(SHARED_SCENARIO.build_system(0))
        assert alone[0].recoveries, "the scenario must exercise recovery"
        first = SHARED_SCENARIO.build_system(0)
        second = SHARED_SCENARIO.build_system(0)
        later = _run(second)
        earlier = _run(first)
        assert earlier[0] == later[0] == alone[0]
        assert earlier[1] == later[1] == alone[1]

    def test_hosted_gauges_count_each_stores_shards(self):
        obs = Observability()
        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 8, GeminiConfig(num_replicas=3), obs=obs
        )
        for store in system.policy.stores.values():
            gauge = obs.metrics.sample(
                "repro_cpu_ckpt_hosted_replicas",
                {"machine": store.machine.machine_id},
            )
            assert gauge.value == len(store.hosted_ranks()) == 3

"""Cluster rank management and machine replacement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, MachineState, P4D_24XLARGE


@pytest.fixture
def cluster():
    return Cluster(4, P4D_24XLARGE)


class TestCluster:
    def test_size_and_iteration(self, cluster):
        assert cluster.size == 4
        assert len(list(cluster)) == 4

    def test_ranks_are_sequential(self, cluster):
        assert [m.rank for m in cluster] == [0, 1, 2, 3]

    def test_machine_ids_unique(self, cluster):
        ids = {m.machine_id for m in cluster}
        assert len(ids) == 4

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0, P4D_24XLARGE)

    def test_unknown_rank_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.machine(99)

    def test_healthy_and_failed_ranks(self, cluster):
        cluster.machine(2).mark_failed()
        assert cluster.healthy_ranks() == [0, 1, 3]
        assert cluster.failed_ranks() == [2]

    def test_process_down_is_not_failed_rank(self, cluster):
        cluster.machine(1).mark_process_down()
        assert cluster.failed_ranks() == []
        assert 1 not in cluster.healthy_ranks()

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["software", "hardware", "restart", "replacing", "replace", "stale"]
                ),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_unhealthy_ranks_match_a_full_scan(self, ops):
        """The down set, pruned on read, against a scan of every machine."""
        cluster = Cluster(6, P4D_24XLARGE)
        replaced = []
        for kind, rank in ops:
            machine = cluster.machine(rank)
            if kind == "software" and machine.state is not MachineState.FAILED:
                machine.mark_process_down()
            elif kind == "hardware":
                machine.mark_failed()
            elif kind == "restart" and machine.state is MachineState.PROCESS_DOWN:
                machine.restart_process()
            elif kind == "replacing" and not machine.hardware_alive:
                machine.state = MachineState.REPLACING
            elif kind == "replace" and not machine.hardware_alive:
                replaced.append(machine)
                cluster.replace(rank)
            elif kind == "stale" and replaced:
                # A late event on a machine already replaced away.
                replaced[rank % len(replaced)].mark_failed()
            machines = [cluster.machine(r) for r in range(cluster.size)]
            assert cluster.unhealthy_ranks() == [
                m.rank for m in machines if not m.is_healthy
            ]
            assert cluster.healthy_ranks() == [m.rank for m in machines if m.is_healthy]
            assert cluster.failed_ranks() == [
                m.rank
                for m in machines
                if m.state in (MachineState.FAILED, MachineState.REPLACING)
            ]
            assert cluster.machines() == machines

    def test_find_by_id(self, cluster):
        machine = cluster.machine(2)
        assert cluster.find_by_id(machine.machine_id) is machine
        assert cluster.find_by_id("nope") is None


class TestReplacement:
    def test_replace_installs_fresh_machine_at_rank(self, cluster):
        old = cluster.machine(2)
        old.mark_failed()
        new = cluster.replace(2)
        assert new.rank == 2
        assert new.machine_id != old.machine_id
        assert new.is_healthy
        assert cluster.machine(2) is new

    def test_replace_healthy_machine_refused(self, cluster):
        with pytest.raises(RuntimeError):
            cluster.replace(0)

    def test_old_machine_object_stays_dead(self, cluster):
        old = cluster.machine(2)
        old.mark_failed()
        cluster.replace(2)
        assert old.state == MachineState.FAILED

    def test_replaced_machine_not_findable(self, cluster):
        old = cluster.machine(2)
        old.mark_failed()
        cluster.replace(2)
        assert cluster.find_by_id(old.machine_id) is None

"""Worker/root agents: heartbeats, detection, root failover."""

import pytest

from repro.cluster import Cluster, P4D_24XLARGE
from repro.core.agents import (
    HEALTH_PREFIX,
    ROOT_ELECTION_KEY,
    RootAgent,
    WorkerAgent,
)
from repro.kvstore import Election, KVStore
from repro.sim import Simulator


@pytest.fixture
def env():
    sim = Simulator()
    store = KVStore(sim)
    cluster = Cluster(4, P4D_24XLARGE)
    return sim, store, cluster


def spawn_workers(sim, store, cluster):
    return [
        WorkerAgent(sim, store, cluster, rank) for rank in range(cluster.size)
    ]


def spawn_roots(sim, store, cluster, ranks, on_failure_detected=lambda d: None):
    election = Election(store, ROOT_ELECTION_KEY)
    return [
        RootAgent(sim, store, cluster, rank, election, on_failure_detected)
        for rank in ranks
    ]


class TestWorkerAgent:
    def test_healthy_workers_keep_keys_alive(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        sim.run(until=120.0)
        assert len(store.get_prefix(HEALTH_PREFIX)) == 4

    def test_dead_worker_key_expires_within_ttl(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        sim.run(until=60.0)
        cluster.machine(2).mark_failed()
        sim.run(until=60.0 + 20.0)  # > lease TTL of 15 s
        keys = store.get_prefix(HEALTH_PREFIX)
        assert f"{HEALTH_PREFIX}2" not in keys
        assert len(keys) == 3

    def test_graceful_stop_revokes_lease(self, env):
        sim, store, cluster = env
        agents = spawn_workers(sim, store, cluster)
        sim.run(until=10.0)
        agents[0].stop()
        sim.run(until=11.0)
        assert f"{HEALTH_PREFIX}0" not in store.get_prefix(HEALTH_PREFIX)

    def test_ttl_must_exceed_heartbeat(self, env):
        sim, store, cluster = env
        with pytest.raises(ValueError):
            WorkerAgent(sim, store, cluster, 0, heartbeat_interval=10, lease_ttl=5)


class TestRootAgent:
    def test_detects_failed_worker_within_detection_window(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        detections = []
        spawn_roots(sim, store, cluster, [0], detections.append)
        sim.run(until=60.0)
        assert detections == []
        failure_time = sim.now
        cluster.machine(3).mark_failed()
        sim.run(until=failure_time + 30.0)
        assert len(detections) == 1
        assert detections[0].missing_ranks == [3]
        # Detection latency ~ lease TTL (15 s) + one scan interval.
        assert detections[0].detected_at - failure_time <= 25.0

    def test_no_duplicate_detection_while_handling(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        detections = []
        spawn_roots(sim, store, cluster, [0], detections.append)
        sim.run(until=30.0)
        cluster.machine(3).mark_failed()
        sim.run(until=120.0)
        assert len(detections) == 1

    def test_mark_handled_allows_redetection(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        detections = []
        (root,) = spawn_roots(sim, store, cluster, [0], detections.append)
        sim.run(until=30.0)
        cluster.machine(3).mark_failed()
        sim.run(until=90.0)
        root.mark_handled([3])
        sim.run(until=120.0)
        assert len(detections) == 2  # rank 3 still has no heartbeat

    def test_single_leader_among_candidates(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        roots = spawn_roots(sim, store, cluster, range(4))
        sim.run(until=30.0)
        leaders = [root.rank for root in roots if root.is_leader]
        assert leaders == [0]

    def test_root_failover_on_leader_death(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        roots = spawn_roots(sim, store, cluster, range(4))
        sim.run(until=30.0)
        cluster.machine(0).mark_failed()
        sim.run(until=30.0 + 40.0)
        leaders = [root.rank for root in roots if root.is_leader]
        assert leaders == [1]

    def test_dead_root_stops_scanning(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        detections = []
        spawn_roots(sim, store, cluster, [0], detections.append)
        sim.run(until=20.0)
        cluster.machine(0).mark_failed()  # the root machine itself
        cluster.machine(2).mark_failed()
        sim.run(until=120.0)
        # No other candidate exists, so nothing detects rank 2.
        assert detections == []


class TestSharedRootElection:
    def test_root_agents_register_one_watch(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        roots = spawn_roots(sim, store, cluster, range(4))
        assert len({id(root.election) for root in roots}) == 1
        assert len(store._watches) == 1
        sim.run(until=30.0)
        assert len(store._watches) == 1

    def test_failover_follows_campaign_order(self, env):
        sim, store, cluster = env
        spawn_workers(sim, store, cluster)
        roots = spawn_roots(sim, store, cluster, [2, 0, 3, 1])
        leaders = []
        for _ in range(3):
            sim.run(until=sim.now + 30.0)
            (leader,) = [root.rank for root in roots if root.is_leader]
            leaders.append(leader)
            cluster.machine(leader).mark_failed()
        sim.run(until=sim.now + 30.0)
        leaders.extend(root.rank for root in roots if root.is_leader)
        assert leaders == [2, 0, 3, 1]

    def test_system_keeps_one_watch_across_respawn(self):
        from repro.core.system import GeminiConfig, GeminiSystem
        from repro.failures import FailureEvent, FailureType, TraceFailureInjector
        from repro.training import GPT2_100B

        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 8, config=GeminiConfig(num_standby=1)
        )
        store = system.detector.kvstore
        assert len(store._watches) == 1
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [FailureEvent(600.0, FailureType.HARDWARE, [system.leader_rank])],
            system.inject_failure,
        )
        result = system.run(1800.0)
        assert len(result.recoveries) == 1
        assert system.leader_rank == 1
        assert len(store._watches) == 1
        plane = system.detector
        elections = {id(agent.election) for agent in plane.root_agents.values()}
        assert elections == {id(plane.election)}

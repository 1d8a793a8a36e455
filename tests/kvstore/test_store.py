"""etcd-like KV store semantics."""

import pytest

from repro.kvstore import KVStore, WatchEventType
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def store(sim):
    return KVStore(sim)


class TestBasicOps:
    def test_get_missing_is_none(self, store):
        assert store.get("nope") is None

    def test_put_get_roundtrip(self, store):
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}

    def test_revision_increments_on_mutation(self, store):
        r1 = store.put("a", 1)
        r2 = store.put("b", 2)
        assert r2 == r1 + 1

    def test_delete(self, store):
        store.put("k", 1)
        assert store.delete("k")
        assert store.get("k") is None
        assert not store.delete("k")

    def test_contains(self, store):
        store.put("k", 1)
        assert "k" in store
        assert "other" not in store

    def test_get_prefix(self, store):
        store.put("health/1", "ok")
        store.put("health/2", "ok")
        store.put("other", "x")
        assert store.get_prefix("health/") == {"health/1": "ok", "health/2": "ok"}


class TestCompareAndSwap:
    def test_create_if_absent(self, store):
        assert store.compare_and_swap("k", None, "first")
        assert not store.compare_and_swap("k", None, "second")
        assert store.get("k") == "first"

    def test_swap_with_expected_value(self, store):
        store.put("k", "old")
        assert store.compare_and_swap("k", "old", "new")
        assert not store.compare_and_swap("k", "old", "newer")
        assert store.get("k") == "new"


class TestLeases:
    def test_keys_vanish_on_expiry(self, sim, store):
        lease = store.grant_lease(ttl=10.0)
        store.put("k", "v", lease=lease)
        sim.run(until=9.0)
        assert store.get("k") == "v"
        sim.run(until=11.0)
        assert store.get("k") is None
        assert not lease.alive

    def test_refresh_extends_expiry(self, sim, store):
        lease = store.grant_lease(ttl=10.0)
        store.put("k", "v", lease=lease)
        sim.call_at(8.0, lease.refresh)
        sim.run(until=15.0)
        assert store.get("k") == "v"
        sim.run(until=19.0)
        assert store.get("k") is None

    def test_revoke_deletes_immediately(self, sim, store):
        lease = store.grant_lease(ttl=100.0)
        store.put("k", "v", lease=lease)
        lease.revoke()
        assert store.get("k") is None

    def test_put_with_dead_lease_raises(self, sim, store):
        lease = store.grant_lease(ttl=1.0)
        sim.run(until=2.0)
        with pytest.raises(RuntimeError):
            store.put("k", "v", lease=lease)

    def test_refresh_revoked_lease_raises(self, store):
        lease = store.grant_lease(ttl=1.0)
        lease.revoke()
        with pytest.raises(RuntimeError):
            lease.refresh()

    def test_invalid_ttl(self, store):
        with pytest.raises(ValueError):
            store.grant_lease(ttl=0)

    def test_unleased_keys_survive(self, sim, store):
        lease = store.grant_lease(ttl=1.0)
        store.put("leased", 1, lease=lease)
        store.put("plain", 2)
        sim.run(until=5.0)
        assert store.get("plain") == 2

    def test_refresh_schedules_no_event(self, sim, store):
        lease = store.grant_lease(ttl=10.0)
        queued = len(sim._queue)
        for _ in range(5):
            lease.refresh()
        assert len(sim._queue) == queued

    def test_refresh_at_same_instant_as_pending_expiry_keeps_key(self, sim, store):
        lease = store.grant_lease(ttl=10.0)  # expiry callback armed for t=10
        store.put("k", "v", lease=lease)
        changes = []
        store.watch("k", lambda event: changes.append((sim.now, event.type)))
        sim.call_at(5.0, lease.refresh)  # the t=10 callback re-arms for t=15
        # Scheduled before that re-arm, so it runs first at t=15.
        sim.call_at(15.0, lease.refresh)
        sim.run(until=24.999)
        assert store.get("k") == "v"
        sim.run(until=30.0)
        assert store.get("k") is None
        assert changes == [(25.0, WatchEventType.DELETE)]

    def test_periodic_refresh_expires_exactly_ttl_after_last_refresh(self, sim, store):
        lease = store.grant_lease(ttl=15.0)
        store.put("k", "v", lease=lease)
        expired_at = []
        store.watch("k", lambda event: expired_at.append(sim.now))

        def heartbeat():
            for _ in range(12):  # last refresh at t=55
                lease.refresh()
                yield sim.timeout(5.0)

        sim.process(heartbeat())
        sim.run(until=69.999)
        assert store.get("k") == "v"
        sim.run(until=100.0)
        assert store.get("k") is None
        assert expired_at == [70.0]


class TestWatches:
    def test_watch_observes_put_and_delete(self, store):
        events = []
        store.watch("health/", events.append)
        store.put("health/3", "ok")
        store.delete("health/3")
        assert [e.type for e in events] == [WatchEventType.PUT, WatchEventType.DELETE]
        assert events[0].value == "ok"
        assert events[1].value is None

    def test_watch_prefix_filtering(self, store):
        events = []
        store.watch("a/", events.append)
        store.put("b/key", 1)
        assert events == []

    def test_cancel_stops_delivery(self, store):
        events = []
        cancel = store.watch("", events.append)
        store.put("k", 1)
        cancel()
        store.put("k", 2)
        assert len(events) == 1

    def test_lease_expiry_generates_delete_events(self, sim, store):
        events = []
        store.watch("health/", events.append)
        lease = store.grant_lease(ttl=5.0)
        store.put("health/0", "ok", lease=lease)
        sim.run(until=10.0)
        deletes = [e for e in events if e.type is WatchEventType.DELETE]
        assert len(deletes) == 1
        assert deletes[0].key == "health/0"

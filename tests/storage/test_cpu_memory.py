"""Double-buffered CPU-memory checkpoint store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineState, P4D_24XLARGE
from repro.obs import Observability
from repro.storage import CPUCheckpointStore
from repro.units import GB


@pytest.fixture
def machine():
    return Machine("m0", 0, P4D_24XLARGE)


@pytest.fixture
def store(machine):
    store = CPUCheckpointStore(machine)
    store.host_shard(rank=0, nbytes=75 * GB)
    store.host_shard(rank=1, nbytes=75 * GB)
    return store


class TestHosting:
    def test_reserves_two_buffers_per_shard(self, machine, store):
        # 2 shards x 2 buffers x 75 GB = 300 GB
        assert machine.cpu_memory_used == pytest.approx(300 * GB)

    def test_double_host_rejected(self, store):
        with pytest.raises(ValueError):
            store.host_shard(rank=0, nbytes=GB)

    def test_cpu_memory_exhaustion_surfaces(self, machine):
        store = CPUCheckpointStore(machine)
        with pytest.raises(MemoryError):
            store.host_shard(rank=0, nbytes=600 * GB)  # x2 buffers > 1152 GB


class TestHostShards:
    """``host_shards`` is the one hosting path: it must leave a store and
    its machine exactly as one ``host_shard`` call per owner would."""

    def test_hosts_in_one_call(self, machine):
        store = CPUCheckpointStore(machine)
        slots = store.host_shards([4, 1, 9], 10 * GB)
        assert [slot.rank for slot in slots] == [4, 1, 9]
        assert store.hosted_ranks() == [1, 4, 9]
        assert machine.cpu_memory_used == 60 * GB

    def test_oom_stops_on_the_overflowing_shard(self):
        # 250 GB x 2 buffers per shard: the third shard overflows 1152 GB.
        bulk = Machine("m0", 0, P4D_24XLARGE)
        store = CPUCheckpointStore(bulk)
        with pytest.raises(MemoryError, match="rank 2"):
            store.host_shards([0, 1, 2, 3], 250 * GB)
        looped = Machine("m1", 0, P4D_24XLARGE)
        reference = CPUCheckpointStore(looped)
        with pytest.raises(MemoryError, match="rank 2"):
            for owner in [0, 1, 2, 3]:
                reference.host_shard(owner, 250 * GB)
        assert bulk.cpu_memory_used == looped.cpu_memory_used == 1000 * GB
        assert store.hosted_ranks() == reference.hosted_ranks() == [0, 1]

    def test_duplicate_owner_rejected(self, machine):
        store = CPUCheckpointStore(machine)
        with pytest.raises(ValueError, match="rank 3 already hosted"):
            store.host_shards([3, 5, 3], GB)
        assert store.hosted_ranks() == [3, 5]
        assert machine.cpu_memory_used == 4 * GB
        with pytest.raises(ValueError, match="rank 5 already hosted"):
            store.host_shards([5], GB)

    def test_non_positive_size_rejected(self, machine):
        store = CPUCheckpointStore(machine)
        with pytest.raises(ValueError, match="shard size"):
            store.host_shards([0], 0.0)
        assert store.hosted_ranks() == []

    def test_hosted_gauge_counts_the_hosted_shards(self):
        obs = Observability()
        obs.bind_clock(lambda: 42.0)
        machine = Machine("m7", 0, P4D_24XLARGE)
        store = CPUCheckpointStore(machine, obs=obs)
        name, labels = "repro_cpu_ckpt_hosted_replicas", {"machine": "m7"}
        with pytest.raises(MemoryError):
            store.host_shards([0], 600 * GB)
        # Nothing hosted: no series, as a failed host_shard leaves none.
        assert obs.metrics.sample(name, labels) is None
        store.host_shards([0, 1, 2], GB)
        gauge = obs.metrics.sample(name, labels)
        assert gauge.value == 3.0
        assert gauge.last_updated == 42.0
        store.host_shard(3, GB)
        assert gauge.value == 4.0


class TestWriteProtocol:
    def test_commit_makes_checkpoint_visible(self, store):
        assert store.latest_complete(0) is None
        store.begin_write(0, iteration=5)
        assert store.latest_complete(0) is None  # in-progress is invisible
        store.commit_write(0, iteration=5)
        assert store.latest_complete(0) == 5

    def test_double_buffer_keeps_previous_during_write(self, store):
        store.begin_write(0, 5)
        store.commit_write(0, 5)
        store.begin_write(0, 6)
        # Failure now would still find iteration 5 complete.
        assert store.latest_complete(0) == 5
        store.commit_write(0, 6)
        assert store.latest_complete(0) == 6

    def test_concurrent_write_rejected(self, store):
        store.begin_write(0, 5)
        with pytest.raises(RuntimeError):
            store.begin_write(0, 6)

    def test_stale_write_rejected(self, store):
        store.begin_write(0, 5)
        store.commit_write(0, 5)
        with pytest.raises(ValueError):
            store.begin_write(0, 5)

    def test_commit_must_match_begin(self, store):
        store.begin_write(0, 5)
        with pytest.raises(RuntimeError):
            store.commit_write(0, 7)

    def test_abort_discards_in_progress(self, store):
        store.begin_write(0, 5)
        store.abort_write(0)
        assert store.latest_complete(0) is None
        store.begin_write(0, 5)  # can retry the same iteration
        store.commit_write(0, 5)
        assert store.latest_complete(0) == 5

    def test_independent_ranks(self, store):
        store.begin_write(0, 3)
        store.commit_write(0, 3)
        assert store.latest_complete(1) is None


class TestValidity:
    def test_software_failure_preserves_contents(self, machine, store):
        store.begin_write(0, 5)
        store.commit_write(0, 5)
        machine.mark_process_down()
        assert store.valid
        assert store.latest_complete(0) == 5

    def test_restart_preserves_contents(self, machine, store):
        store.begin_write(0, 5)
        store.commit_write(0, 5)
        machine.mark_process_down()
        machine.restart_process()
        assert store.latest_complete(0) == 5

    def test_hardware_failure_invalidates(self, machine, store):
        store.begin_write(0, 5)
        store.commit_write(0, 5)
        machine.mark_failed()
        assert not store.valid
        assert store.latest_complete(0) is None

    def test_writes_to_invalid_store_raise(self, machine, store):
        machine.mark_failed()
        with pytest.raises(RuntimeError):
            store.begin_write(0, 1)

    def test_store_built_on_dead_machine_is_invalid(self, machine):
        machine.mark_failed()
        store = CPUCheckpointStore(machine)
        assert not store.valid
        assert store.latest_complete(0) is None
        with pytest.raises(RuntimeError, match="invalid"):
            store.host_shard(0, GB)
        with pytest.raises(RuntimeError, match="invalid"):
            store.commit_all(1)
        with pytest.raises(RuntimeError, match="invalid"):
            store.settle_at_rollback(1)

    def test_store_built_during_replacement_is_invalid(self, machine):
        machine.mark_failed()
        machine.state = MachineState.REPLACING
        assert not CPUCheckpointStore(machine).valid

    @given(
        steps=st.lists(
            st.sampled_from(["software", "restart", "hardware", "replacing", "build"]),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_epoch_validity_matches_hardware_and_epoch_check(self, steps):
        """``valid`` is an epoch compare; the check it replaces also polled
        ``hardware_alive``.  Over any legal machine history they agree."""
        machine = Machine("m0", 0, P4D_24XLARGE)
        stores = [(CPUCheckpointStore(machine), machine.epoch)]
        for step in steps:
            if step == "software" and machine.state is not MachineState.FAILED:
                machine.mark_process_down()
            elif step == "restart" and machine.state is MachineState.PROCESS_DOWN:
                machine.restart_process()
            elif step == "hardware":
                machine.mark_failed()
            elif step == "replacing" and not machine.hardware_alive:
                # The cloud operator only starts replacing dead hardware.
                machine.state = MachineState.REPLACING
            elif step == "build":
                store = CPUCheckpointStore(machine)
                if machine.hardware_alive:
                    stores.append((store, machine.epoch))
                else:
                    assert not store.valid
            for store, epoch_at_build in stores:
                assert store.valid == (
                    machine.hardware_alive and machine.epoch == epoch_at_build
                ), (step, machine.state)

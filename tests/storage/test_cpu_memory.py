"""Double-buffered CPU-memory checkpoint store."""

import pytest

from repro.cluster import Machine, P4D_24XLARGE
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

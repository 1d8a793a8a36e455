"""Machine lifecycle and memory accounting."""

import pytest

from repro.cluster import Machine, MachineState, P4D_24XLARGE
from repro.units import GB


@pytest.fixture
def machine():
    return Machine("m0001", rank=3, instance_type=P4D_24XLARGE)


class TestGPUMemory:
    def test_allocate_and_free(self, machine):
        gpu = machine.gpus[0]
        gpu.allocate(10 * GB)
        assert gpu.free_bytes == 30 * GB
        gpu.free(10 * GB)
        assert gpu.free_bytes == 40 * GB

    def test_oom_raises_memory_error(self, machine):
        gpu = machine.gpus[0]
        with pytest.raises(MemoryError, match="out of memory"):
            gpu.allocate(41 * GB, what="checkpoint buffer")

    def test_overfree_raises(self, machine):
        with pytest.raises(ValueError):
            machine.gpus[0].free(1.0)

    def test_negative_allocation_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.gpus[0].allocate(-1.0)

    def test_each_machine_has_eight_gpus(self, machine):
        assert len(machine.gpus) == 8

    def test_gpus_are_built_once_with_the_shape_memory(self, machine):
        gpus = machine.gpus
        assert machine.gpus is gpus
        assert [gpu.index for gpu in gpus] == list(range(8))
        assert {gpu.memory_bytes for gpu in gpus} == {40 * GB}
        assert all(gpu.used_bytes == 0.0 for gpu in gpus)

    def test_hardware_failure_before_first_access(self, machine):
        # GPUs are built on demand; a failure before any access leaves
        # a full, empty set behind it.
        machine.mark_failed()
        assert len(machine.gpus) == 8
        assert all(gpu.used_bytes == 0.0 for gpu in machine.gpus)
        assert machine.gpus[0].free_bytes == 40 * GB

    def test_hardware_failure_after_access_frees_every_gpu(self, machine):
        for gpu in machine.gpus:
            gpu.allocate(GB)
        gpus = machine.gpus
        machine.mark_failed()
        assert machine.gpus is gpus
        assert all(gpu.used_bytes == 0.0 for gpu in machine.gpus)


class TestCPUMemory:
    def test_allocate_tracks_usage(self, machine):
        machine.allocate_cpu_memory(100 * GB)
        assert machine.cpu_memory_free == pytest.approx(1052 * GB)

    def test_cpu_oom(self, machine):
        with pytest.raises(MemoryError):
            machine.allocate_cpu_memory(2000 * GB)

    def test_free_restores(self, machine):
        machine.allocate_cpu_memory(100 * GB)
        machine.free_cpu_memory(100 * GB)
        assert machine.cpu_memory_used == 0.0

    def test_overfree_raises(self, machine):
        with pytest.raises(ValueError):
            machine.free_cpu_memory(1.0)


class TestLifecycle:
    def test_starts_healthy(self, machine):
        assert machine.is_healthy
        assert machine.hardware_alive

    def test_software_failure_keeps_hardware(self, machine):
        machine.mark_process_down()
        assert not machine.is_healthy
        assert machine.hardware_alive
        assert machine.state == MachineState.PROCESS_DOWN

    def test_restart_preserves_epoch(self, machine):
        # CPU-memory contents survive a software restart (Section 6.2).
        epoch = machine.epoch
        machine.mark_process_down()
        machine.restart_process()
        assert machine.is_healthy
        assert machine.epoch == epoch

    def test_hardware_failure_bumps_epoch_and_clears_memory(self, machine):
        machine.allocate_cpu_memory(100 * GB)
        machine.gpus[0].allocate(GB)
        epoch = machine.epoch
        machine.mark_failed()
        assert machine.epoch == epoch + 1
        assert machine.cpu_memory_used == 0.0
        assert machine.gpus[0].used_bytes == 0.0
        assert not machine.hardware_alive

    def test_restart_requires_process_down(self, machine):
        with pytest.raises(RuntimeError):
            machine.restart_process()

    def test_cannot_mark_failed_machine_process_down(self, machine):
        machine.mark_failed()
        with pytest.raises(RuntimeError):
            machine.mark_process_down()

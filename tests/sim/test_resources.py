"""Resource semantics."""

import pytest

from repro.sim import Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_within_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        granted = []

        def worker(name):
            request = resource.request()
            yield request
            granted.append((sim.now, name))
            yield sim.timeout(5)
            request.release()

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.process(worker("c"))
        sim.run()
        # a and b start at t=0; c waits for a release at t=5.
        assert granted == [(0.0, "a"), (0.0, "b"), (5.0, "c")]

    def test_fifo_order(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(name):
            with resource.request() as request:
                yield request
                order.append(name)
                yield sim.timeout(1)

        for name in "abcd":
            sim.process(worker(name))
        sim.run()
        assert order == list("abcd")

    def test_release_idempotent(self, sim):
        resource = Resource(sim, capacity=1)
        request = resource.request()
        sim.run()
        request.release()
        request.release()
        assert resource.count == 0

    def test_cancel_waiting_request(self, sim):
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        second.cancel()
        third = resource.request()
        sim.run()
        first.release()
        sim.run()
        assert third.triggered
        assert not second.triggered

    def test_queue_length(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()
        resource.request()
        resource.request()
        assert resource.count == 1
        assert resource.queue_length == 2

    def test_context_manager_releases(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            with resource.request() as request:
                yield request
            return resource.count

        process = sim.process(worker())
        sim.run()
        assert process.value == 0

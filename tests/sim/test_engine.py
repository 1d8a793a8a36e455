"""Simulator loop semantics: ordering, run bounds, determinism."""

import pytest

from repro.sim import Simulator, SimulationError, events_tally


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0

    def test_call_at_runs_at_absolute_time(self, sim):
        times = []
        sim.call_at(7.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [7.5]

    def test_call_at_past_raises(self, sim):
        sim.timeout(10)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_call_after_relative(self, sim):
        sim.timeout(3)
        sim.run()
        times = []
        sim.call_after(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_equal_time_events_fire_in_scheduling_order(self, sim):
        order = []
        for index in range(5):
            sim.call_at(1.0, lambda i=index: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_peek_returns_next_event_time(self, sim):
        sim.timeout(4)
        sim.timeout(2)
        assert sim.peek() == 2.0

    def test_peek_empty_queue_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestCallbackFastPath:
    """call_at/call_after return lightweight Callback events (no Timeout
    + lambda pair); they must still behave like ordinary events."""

    def test_call_after_returns_awaitable_event(self, sim):
        from repro.sim import Callback

        event = sim.call_after(2.0, lambda: None)
        assert isinstance(event, Callback)

        def waiter():
            yield event
            return sim.now

        process = sim.process(waiter())
        sim.run()
        assert process.value == 2.0
        assert event.triggered and event.ok

    def test_negative_delay_raises(self, sim):
        with pytest.raises(ValueError):
            sim.call_after(-1.0, lambda: None)

    def test_callbacks_added_after_scheduling_still_run(self, sim):
        seen = []
        event = sim.call_after(1.0, lambda: seen.append("func"))
        event.callbacks.append(lambda ev: seen.append("chained"))
        sim.run()
        assert seen == ["func", "chained"]

    def test_interleaves_with_timeouts_in_scheduling_order(self, sim):
        order = []
        sim.timeout(1.0).callbacks.append(lambda ev: order.append("timeout"))
        sim.call_at(1.0, lambda: order.append("callback"))
        sim.timeout(1.0).callbacks.append(lambda ev: order.append("timeout2"))
        sim.run()
        assert order == ["timeout", "callback", "timeout2"]


class TestRun:
    def test_run_until_advances_clock_even_if_queue_drains(self, sim):
        sim.timeout(1)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_run_until_does_not_fire_later_events(self, sim):
        fired = []
        sim.call_at(10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert not fired
        sim.run()
        assert fired

    def test_run_until_in_past_raises(self, sim):
        sim.timeout(5)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_stop_halts_run(self, sim):
        sim.call_at(1.0, lambda: sim.stop("halted"))
        sim.call_at(2.0, lambda: pytest.fail("should not run"))
        result = sim.run()
        assert result == "halted"
        assert sim.now == 1.0

    def test_run_until_event_returns_value(self, sim):
        event = sim.event()
        sim.call_at(3.0, lambda: event.succeed("v"))
        assert sim.run_until_event(event) == "v"

    def test_run_until_event_raises_on_failure(self, sim):
        event = sim.event()
        sim.call_at(1.0, lambda: event.fail(RuntimeError("bad")))
        with pytest.raises(RuntimeError, match="bad"):
            sim.run_until_event(event)

    def test_run_until_event_limit_guards_deadlock(self, sim):
        event = sim.event()  # never fires
        sim.timeout(100)
        with pytest.raises(SimulationError):
            sim.run_until_event(event, limit=50)

    def test_run_until_event_drained_queue_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_event(event)

    def test_run_until_event_adds_to_the_tally(self, sim):
        event = sim.event()
        for delay in (1.0, 2.0, 3.0):
            sim.timeout(delay)
        sim.call_at(2.0, lambda: event.succeed("v"))
        tally, processed = events_tally(), sim.events_processed
        assert sim.run_until_event(event) == "v"
        assert sim.events_processed - processed == 4
        assert events_tally() - tally == 4

    def test_run_until_event_adds_to_the_tally_when_it_hits_the_limit(self, sim):
        event = sim.event()  # never fires
        for delay in (10.0, 20.0, 100.0):
            sim.timeout(delay)
        tally, processed = events_tally(), sim.events_processed
        with pytest.raises(SimulationError):
            sim.run_until_event(event, limit=50)
        assert sim.events_processed - processed == 2
        assert events_tally() - tally == 2


class TestDeterminism:
    def test_two_identical_simulations_agree(self):
        def build():
            sim = Simulator()
            log = []

            def worker(name, delay):
                yield sim.timeout(delay)
                log.append((sim.now, name))
                yield sim.timeout(delay)
                log.append((sim.now, name))

            for index in range(10):
                sim.process(worker(f"w{index}", 1 + index * 0.1))
            sim.run()
            return log

        assert build() == build()

    def test_interleaved_processes_deterministic_at_equal_times(self):
        sim = Simulator()
        order = []

        def worker(name):
            yield sim.timeout(1.0)
            order.append(name)

        for name in "abcde":
            sim.process(worker(name))
        sim.run()
        assert order == list("abcde")

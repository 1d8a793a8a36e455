"""The simulation event loop.

:class:`Simulator` owns the virtual clock and a priority queue of scheduled
events.  Events scheduled at equal times fire in FIFO scheduling order
(with an *urgent* lane for interrupts), which makes every run fully
deterministic.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Generator, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Callback, Event, Process, Timeout
from repro.sim.sanitize import determinism_guard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs import Observability
    from repro.obs.metrics import Counter, Gauge

# Priority lanes within a single timestamp.
_URGENT = 0
_NORMAL = 1

# Process-wide tally of events fired by ``Simulator.run()`` and
# ``Simulator.run_until_event()`` calls.  Purely observational: telemetry
# (``repro.obs.fleet``) reads deltas around a scenario to report
# sim-events throughput without touching the result path.  Never read by
# simulation code.
_EVENTS_TALLY = 0


def events_tally() -> int:
    """Events fired by every ``run``/``run_until_event`` in this process so far."""
    return _EVENTS_TALLY


class SimulationError(RuntimeError):
    """Raised for structural misuse of the simulator."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Simulator:
    """Deterministic discrete-event simulator.

    Attributes
    ----------
    now:
        Current simulated time (seconds, by library convention).
    events_processed:
        Total events fired since construction (always maintained; the
        cheap invariant that lets tests assert observability changes
        nothing about a run).
    """

    def __init__(
        self,
        start_time: float = 0.0,
        obs: Optional["Observability"] = None,
        sanitize: bool = False,
    ):
        self.now: float = float(start_time)
        #: when True, ambient nondeterminism sources (module-level
        #: ``time.time``/``random.random``...) raise
        #: :class:`~repro.sim.sanitize.DeterminismViolation` while the
        #: event loop is stepping.  See :mod:`repro.sim.sanitize`.
        self.sanitize = bool(sanitize)
        # The guard/no-op choice is resolved once here, not per run()
        # call, so back-to-back macro-tick run() calls pay no setup.
        self._sanitize_factory = determinism_guard if self.sanitize else nullcontext
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: True while :meth:`run` or :meth:`run_until_event` is firing
        #: events.  Between two ``run`` calls every event at ``now`` has
        #: already fired; inside one, the current event may precede others
        #: due at the same instant.
        self.running = False
        self.events_processed: int = 0
        # Instrument handles are resolved once so the per-event cost when
        # observability is on is two attribute calls, and zero when off.
        self._evt_counter: Optional["Counter"] = None
        self._depth_gauge: Optional["Gauge"] = None
        if obs is not None and obs.enabled:
            self._evt_counter = obs.metrics.counter(
                "repro_sim_events_processed_total",
                help="DES events fired by the simulator",
            )
            self._depth_gauge = obs.metrics.gauge(
                "repro_sim_queue_depth",
                help="scheduled events pending in the DES queue",
            )

    # -- event construction -------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that fires when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    def call_at(self, time: float, func: Callable[[], None]) -> Event:
        """Run ``func()`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(f"call_at({time}) is in the past (now={self.now})")
        return Callback(self, time - self.now, func)

    def call_after(self, delay: float, func: Callable[[], None]) -> Event:
        """Run ``func()`` after ``delay`` time units."""
        return Callback(self, delay, func)

    # -- scheduling internals ------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0, urgent: bool = False) -> None:
        self._seq += 1
        lane = _URGENT if urgent else _NORMAL
        heapq.heappush(self._queue, (self.now + delay, lane, self._seq, event))

    # -- running ---------------------------------------------------------------

    def _sanitize_context(self) -> ContextManager[None]:
        """The determinism guard when sanitizing, else a no-op."""
        return self._sanitize_factory()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Pop and fire the next event.  Raises IndexError on an empty queue."""
        time, _lane, _seq, event = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = time
        self.events_processed += 1
        if self._evt_counter is not None and self._depth_gauge is not None:
            self._evt_counter.inc()
            self._depth_gauge.set(len(self._queue))
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the queue drains or the clock reaches ``until``.

        If ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        # Hoisted inline form of step(): the queue, heappop, and the
        # (usually disabled) instrument handles are resolved once per run
        # instead of per event — the loop body is pure local-variable work.
        global _EVENTS_TALLY
        queue = self._queue
        pop = heapq.heappop
        evt_counter = self._evt_counter
        depth_gauge = self._depth_gauge
        entry = self.events_processed
        self.running = True
        try:
            with self._sanitize_factory():
                while queue:
                    if until is not None and queue[0][0] > until:
                        break
                    time, _lane, _seq, event = pop(queue)
                    if time < self.now:
                        raise SimulationError("event queue corrupted: time went backwards")
                    self.now = time
                    self.events_processed += 1
                    if evt_counter is not None and depth_gauge is not None:
                        evt_counter.inc()
                        depth_gauge.set(len(queue))
                    event._run_callbacks()
        except StopSimulation as stop:
            return stop.value
        finally:
            self.running = False
            _EVENTS_TALLY += self.events_processed - entry
        if until is not None:
            self.now = max(self.now, until)
        return None

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value (raising on failure).

        ``limit`` bounds the simulated time; exceeding it raises
        :class:`SimulationError` — useful for catching deadlocked tests.
        """
        # The same hoisted loop as run(), so its events reach the tally too.
        global _EVENTS_TALLY
        queue = self._queue
        pop = heapq.heappop
        evt_counter = self._evt_counter
        depth_gauge = self._depth_gauge
        entry = self.events_processed
        self.running = True
        try:
            with self._sanitize_factory():
                while not event.triggered:
                    if not queue:
                        raise SimulationError(f"queue drained before {event!r} triggered")
                    if limit is not None and queue[0][0] > limit:
                        raise SimulationError(f"{event!r} not triggered by t={limit}")
                    time, _lane, _seq, fired = pop(queue)
                    if time < self.now:
                        raise SimulationError("event queue corrupted: time went backwards")
                    self.now = time
                    self.events_processed += 1
                    if evt_counter is not None and depth_gauge is not None:
                        evt_counter.inc()
                        depth_gauge.set(len(queue))
                    fired._run_callbacks()
        finally:
            self.running = False
            _EVENTS_TALLY += self.events_processed - entry
        if event.ok:
            return event.value
        event._defuse()
        raise event.value

    def stop(self, value: Any = None) -> None:
        """Halt the currently running :meth:`run` call."""
        raise StopSimulation(value)

    def __repr__(self) -> str:
        return f"<Simulator t={self.now} queued={len(self._queue)}>"

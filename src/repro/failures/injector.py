"""Failure injectors: Poisson arrivals and scripted traces.

Injectors only *announce* failures by applying machine state transitions
and invoking a handler; detection latency, recovery orchestration, and
machine replacement belong to the recovery module and cloud operator.

Two pieces are shared with every injector in :mod:`repro.chaos`:
:func:`deliver` (build, apply, log and hand off one failure) and
:class:`ArrivalProcess` (the random arrival loop).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.failures.types import FailureEvent, FailureType
from repro.sim import RandomStreams, Simulator
from repro.units import DAY

#: OPT-175B logbook observation (Section 7.3): ~1.5% of instances fail per day.
OPT_DAILY_FAILURE_RATE = 0.015

FailureHandler = Callable[[FailureEvent], None]


def apply_failure(cluster: Cluster, event: FailureEvent) -> None:
    """Apply the machine state transitions of a failure event.

    Idempotent with respect to already-down machines, so callers need not
    pre-filter (injectors still do, to keep their ``injected`` logs
    honest about which ranks each event actually took down):

    - SOFTWARE only downs a ``HEALTHY`` machine's process; a machine that
      is already ``PROCESS_DOWN``, ``FAILED``, or ``REPLACING`` is left
      untouched (a crash of a process that is not running is a no-op).
    - HARDWARE downs any machine whose hardware is still alive —
      including a ``PROCESS_DOWN`` one, the *escalation* case where the
      host dies while its process is being restarted.  A machine already
      ``FAILED`` or ``REPLACING`` is left untouched; in particular its
      incarnation epoch is NOT bumped again, so stale-event detection
      keyed on the epoch stays correct.
    """
    for rank in event.ranks:
        machine = cluster.machine(rank)
        if event.failure_type is FailureType.SOFTWARE:
            if machine.is_healthy:
                machine.mark_process_down()
        else:
            if machine.hardware_alive:
                machine.mark_failed()


def deliver(
    cluster: Cluster,
    handler: FailureHandler,
    log: List[FailureEvent],
    time: float,
    failure_type: FailureType,
    ranks: List[int],
) -> None:
    """Inject one failure: build the event, apply it, log it, hand it off.

    ``ranks`` must already be filtered to the machines the failure can
    take down; each injector keeps its own susceptibility rule.
    """
    event = FailureEvent(time, failure_type, ranks)
    apply_failure(cluster, event)
    log.append(event)
    handler(event)


class ArrivalProcess:
    """Random arrivals on the simulated clock: draw a gap, strike, repeat.

    The shared scaffold of every random injector: it checks the rate,
    draws from the :class:`RandomStreams` stream named ``stream_name``,
    stops at ``horizon``, and spaces arrivals memorylessly at
    ``events_per_day`` across the cluster.  Subclasses override
    :meth:`_strike` (what one arrival does) and may override
    :meth:`_next_gap` (the inter-arrival distribution).  A strike that
    injects a failure does so through :func:`deliver` with ``cluster``
    and ``handler``.
    """

    #: name of the RandomStreams stream this injector draws from.
    stream_name: str

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        handler: FailureHandler,
        *,
        events_per_day: float,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if events_per_day < 0:
            raise ValueError(f"arrivals per day must be >= 0, got {events_per_day}")
        self.sim = sim
        self.cluster = cluster
        self.handler = handler
        self.events_per_day = events_per_day
        self.horizon = horizon
        self._rng = (rng or RandomStreams(0)).stream(self.stream_name)
        #: what each strike delivered, in arrival order.
        self.injected: List[Any] = []
        if events_per_day > 0:
            self._schedule_next()

    def _next_gap(self) -> float:
        return self._rng.expovariate(self.events_per_day / DAY)

    def _schedule_next(self) -> None:
        when = self.sim.now + self._next_gap()
        if self.horizon is not None and when > self.horizon:
            return
        self.sim.call_at(when, self._fire)

    def _fire(self) -> None:
        self._strike()
        self._schedule_next()

    def _strike(self) -> None:
        raise NotImplementedError


class TraceFailureInjector:
    """Replays a scripted list of failure events on the simulated clock.

    Boundary semantics: an event strictly in the past
    (``event.time < sim.now``) is rejected at construction; an event at
    **exactly** ``sim.now`` is accepted and fires within the current
    timestep — after every event already queued for this instant (the
    scheduler appends it to the normal lane in FIFO order), including
    when the injector itself is constructed from inside a running
    callback.  Either way the failure lands before simulated time
    advances, so a trace replayed from ``t=0`` behaves identically
    whether the injector is built before or during the first step.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        events: Sequence[FailureEvent],
        handler: FailureHandler,
    ):
        self.sim = sim
        self.cluster = cluster
        self.handler = handler
        self.injected: List[FailureEvent] = []
        for event in sorted(events, key=lambda e: e.time):
            if event.time < sim.now:
                raise ValueError(f"failure event in the past: {event}")
            sim.call_at(event.time, self._make_firer(event))

    def _make_firer(self, event: FailureEvent) -> Callable[[], None]:
        def fire() -> None:
            # Skip ranks whose machines are already down (overlapping faults).
            live = [
                rank
                for rank in event.ranks
                if self.cluster.machine(rank).is_healthy
            ]
            if live:
                deliver(
                    self.cluster, self.handler, self.injected,
                    event.time, event.failure_type, live,
                )

        return fire


class PoissonFailureInjector(ArrivalProcess):
    """Memoryless failures at ``daily_rate`` per machine per day.

    Each arrival picks one healthy machine uniformly at random and draws
    the failure type (``software_fraction`` of failures are software).
    The aggregate arrival rate scales with cluster size, reproducing the
    paper's "failure frequency increases with the number of instances".
    """

    stream_name = "failures"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        handler: FailureHandler,
        daily_rate: float = OPT_DAILY_FAILURE_RATE,
        software_fraction: float = 0.7,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if not 0 <= software_fraction <= 1:
            raise ValueError(f"software_fraction must be in [0,1], got {software_fraction}")
        self.daily_rate = daily_rate
        self.software_fraction = software_fraction
        super().__init__(
            sim,
            cluster,
            handler,
            events_per_day=daily_rate * cluster.size,
            rng=rng,
            horizon=horizon,
        )

    @property
    def aggregate_rate_per_second(self) -> float:
        """Cluster-wide failure arrival rate (machines x per-machine rate)."""
        return self.events_per_day / DAY

    def _strike(self) -> None:
        healthy = self.cluster.healthy_ranks()
        if not healthy:
            return
        rank = self._rng.choice(healthy)
        failure_type = (
            FailureType.SOFTWARE
            if self._rng.random() < self.software_fraction
            else FailureType.HARDWARE
        )
        deliver(
            self.cluster, self.handler, self.injected,
            self.sim.now, failure_type, [rank],
        )

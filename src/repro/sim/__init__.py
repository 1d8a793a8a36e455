"""Deterministic discrete-event simulation (DES) engine.

This package is the substrate on which the GEMINI reproduction runs: the
cluster, network, storage, training loop, agents, and failure injectors are
all simulated processes scheduled by :class:`Simulator`.

The engine is generator-based (simpy-flavoured): a *process* is a Python
generator that yields awaitable :class:`Event` objects (timeouts, other
events, composites) and is resumed when they fire.  Everything is
deterministic given a seed: events at equal times fire in scheduling order.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name):
...     yield sim.timeout(5)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a"))
>>> sim.run()
>>> log
[(5.0, 'a')]
"""

from repro.sim.engine import Simulator, SimulationError, StopSimulation, events_tally
from repro.sim.events import (
    AllOf,
    AnyOf,
    Callback,
    Event,
    EventAlreadyFired,
    Interrupted,
    Process,
    Timeout,
)
from repro.sim.resources import PriorityResource, Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim.sanitize import DeterminismViolation, determinism_guard

__all__ = [
    "AllOf",
    "AnyOf",
    "Callback",
    "DeterminismViolation",
    "Event",
    "EventAlreadyFired",
    "Interrupted",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "SimulationError",
    "Store",
    "StopSimulation",
    "Timeout",
    "determinism_guard",
    "events_tally",
]

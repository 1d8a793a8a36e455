"""GEMINI worker and root agents (paper Section 3.2), and the kernel's
:class:`FailureDetector`, which runs them or a fixed-delay stand-in.

Every training machine runs a *worker agent* that heartbeats its health
into the distributed KV store under a TTL lease; the machine is presumed
failed when its lease expires.  One machine additionally runs the *root
agent*, which periodically scans the health map, reacts to failures
(delegating to the recovery module), and is itself replaced through the KV
store's leader election if the root machine dies.

Heartbeats, lease refreshes and scans are *analytic*.  An agent spawned
at ``t0`` beats at ``t0``, ``t0 + h``, ``(t0 + h) + h``, ... (the floats
a chained ``sim.timeout(h)`` loop produces), but a healthy beat changes
nothing anyone reads: its lease stays alive and its health key stays
put.  So beats are not events.  The simulator only sees:

- each worker's first beat, which grants its lease and puts its key;
- a check at the first beat (or scan) instant after its machine goes
  down (the machine's down listeners deliver that signal), where an
  agent whose machine is still down or replaced stops and its lease
  lapses;
- the lapsed lease's expiry, one TTL after the last beat;
- the leader's scans, but only while a scan can report something: from
  the moment a worker's lease lapses (or the leader is elected) until a
  scan finds every health key present and no lapsed lease pending.

Same-instant order follows the chained loop: a failure delivered by a
running event at a beat instant (a scripted injector arms it at build)
precedes that instant's beat; one made between two ``Simulator.run``
calls follows it (every event at ``now`` has fired).  ``docs/paper_to_code.md`` ("Agent plane") gives the
argument that expiries still precede the scans due at the same instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.failures.types import FailureEvent
from repro.kvstore import Election, KeptLease, KVStore
from repro.sim import Simulator

#: Key prefixes in the KV store.
HEALTH_PREFIX = "gemini/health/"
ROOT_ELECTION_KEY = "gemini/root"

#: Defaults chosen so lease expiry ~= the paper's 15 s detection latency.
DEFAULT_HEARTBEAT_INTERVAL = 5.0
DEFAULT_LEASE_TTL = 15.0

#: below this magnitude integer-valued floats add exactly.
_EXACT_INTEGERS = 2.0**52


class _Beats:
    """The beat instants of one agent incarnation.

    ``last`` is the latest beat that has run; the next is ``last + h``.
    Advancing adds ``h`` one beat at a time, because ``t0 + k * h`` is
    not the float the chained loop produced once ``t0`` is off the
    integer grid.  On that grid every partial sum is exact, so long
    stretches are jumped in one step.
    """

    __slots__ = ("interval", "last")

    def __init__(self, start: float, interval: float):
        self.interval = interval
        self.last = start

    def advance_to(self, now: float) -> None:
        """Take every beat strictly before ``now`` to have run."""
        h = self.interval
        last = self.last
        if (
            now - last > 4 * h
            and now < _EXACT_INTEGERS
            and last.is_integer()
            and h.is_integer()
        ):
            last += (int((now - last) // h) - 2) * h
        while last + h < now:
            last += h
        self.last = last

    def next_after(self, now: float, inclusive: bool) -> float:
        """The first beat at or after ``now`` (``inclusive``) or after it."""
        self.advance_to(now)
        following = self.last + self.interval
        if following == now and not inclusive:
            following += self.interval
        return following


def _call_at(sim: Simulator, when: float, func: Callable[[], None]) -> None:
    """Run ``func`` at exactly ``when``: ``now + (when - now)`` can miss
    it by an ulp, so the delay is nudged until the sum lands on it."""
    delay = when - sim.now
    while sim.now + delay < when:
        delay = math.nextafter(delay, math.inf)
    while sim.now + delay > when:
        delay = math.nextafter(delay, -math.inf)
    sim.call_after(delay, func)


class _AgentPlane:
    """What the agents on one KV store share.

    A worker whose lease lapses wakes the leader's scan; the leader keeps
    scanning while a key is missing or a lapsed lease is still pending.
    """

    __slots__ = ("roots", "lapsing")

    def __init__(self) -> None:
        #: live root agents, in spawn order.
        self.roots: List["RootAgent"] = []
        #: lapsed worker leases; pruned once they end.
        self.lapsing: List[KeptLease] = []

    def wake(self, inclusive: bool = False) -> None:
        # Every live incarnation holding the seat scans: respawns reuse
        # their rank's candidate id.
        for root in list(self.roots):
            if root.is_leader:
                root._arm(inclusive)

    def expiring(self) -> bool:
        self.lapsing = [lease for lease in self.lapsing if not lease.revoked]
        return bool(self.lapsing)


def _plane(store: KVStore) -> _AgentPlane:
    """The agent plane of ``store``, kept on the store itself so it lives
    and dies with it (it references the agents, which reference the
    store)."""
    plane = getattr(store, "_agent_plane", None)
    if plane is None:
        plane = store._agent_plane = _AgentPlane()  # type: ignore[attr-defined]
    return plane


class WorkerAgent:
    """Heartbeats one machine's health status under a lease.

    The agent stops heartbeating the moment its machine is no longer
    healthy (a dead process cannot heartbeat), so the lease expires and
    the rank's health key disappears — that is what the root agent (or
    ASG) observes as the failure signal.
    """

    def __init__(
        self,
        sim: Simulator,
        store: KVStore,
        cluster: Cluster,
        rank: int,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        if lease_ttl <= heartbeat_interval:
            raise ValueError(
                f"lease TTL ({lease_ttl}) must exceed the heartbeat interval "
                f"({heartbeat_interval}) or healthy workers would flap"
            )
        self.sim = sim
        self.store = store
        self.cluster = cluster
        self.rank = rank
        self.heartbeat_interval = heartbeat_interval
        self.lease_ttl = lease_ttl
        self.lease: Optional[KeptLease] = None
        self._stopped = False
        self._machine: Optional[Machine] = None
        self._beats = _Beats(sim.now, heartbeat_interval)
        self._check_pending = False
        self._plane = _plane(store)
        # The first beat runs as its own event at spawn time, after
        # everything already due at this instant.
        sim.call_after(0.0, self._start)

    @property
    def health_key(self) -> str:
        return f"{HEALTH_PREFIX}{self.rank}"

    def stop(self) -> None:
        """Stop heartbeating (graceful shutdown)."""
        self._stopped = True
        self._unlisten()
        if self.lease is not None and self.lease.alive:
            self.lease.revoke()
            self._plane.wake()

    def _start(self) -> None:
        machine = self.cluster.machine(self.rank)
        self._machine = machine
        self.lease = KeptLease(self.store, self.lease_ttl)
        if self._stopped or not machine.is_healthy:
            self._halt()
            return
        self.store.put(
            self.health_key, {"machine_id": machine.machine_id}, lease=self.lease
        )
        machine.add_down_listener(self._on_down)

    def _on_down(self) -> None:
        """The machine went down: check it at the next beat."""
        if self._stopped or self._check_pending:
            return
        at = self._beats.next_after(self.sim.now, inclusive=self.sim.running)
        self._check_pending = True
        _call_at(self.sim, at, self._beat)

    def _beat(self) -> None:
        self._check_pending = False
        if self._stopped:
            return
        self._beats.advance_to(self.sim.now)
        current = self.cluster.machine(self.rank)
        if current is self._machine and current.is_healthy:
            self._beats.last = self.sim.now
            return
        # Our machine died or was replaced: this incarnation is gone and
        # its lease expires one TTL after its last beat (a dead process
        # cannot revoke its own lease).
        self._halt()

    def _halt(self) -> None:
        self._stopped = True
        self._unlisten()
        assert self.lease is not None
        self.lease.lapse(self._beats.last)
        self._plane.lapsing.append(self.lease)
        self._plane.wake()

    def _unlisten(self) -> None:
        if self._machine is not None:
            self._machine.remove_down_listener(self._on_down)


@dataclass
class DetectedFailure:
    """What a detector saw; a root agent's scan leaves the time ``None``."""

    detected_at: float
    missing_ranks: List[int]
    failure_time: Optional[float] = None


class RootAgent:
    """Scans worker health and triggers recovery.

    Parameters
    ----------
    election:
        The root election every machine's root agent campaigns in (one
        shared :class:`Election` on :data:`ROOT_ELECTION_KEY` per store,
        so candidates queue in campaign order and the store carries a
        single watch for it).
    on_failure_detected:
        Callback invoked with a :class:`DetectedFailure` whenever the scan
        finds ranks whose health keys have vanished.  The system wires this
        into the recovery module.
    """

    def __init__(
        self,
        sim: Simulator,
        store: KVStore,
        cluster: Cluster,
        rank: int,
        election: Election,
        on_failure_detected: Callable[[DetectedFailure], None],
        scan_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        self.sim = sim
        self.store = store
        self.cluster = cluster
        self.rank = rank
        self.on_failure_detected = on_failure_detected
        self.scan_interval = scan_interval
        self._stopped = False
        self._being_handled: Set[int] = set()
        self.election = election
        # Scans (and lease refreshes) fall at t0 + h, (t0 + h) + h, ...;
        # the lease grant at t0 counts as the first refresh.
        self._beats = _Beats(sim.now, scan_interval)
        #: instant of the pending scan event, and the token that keeps
        #: only the latest-scheduled one live.
        self._tick_at = math.inf
        self._tick_token = 0
        self._plane = _plane(store)
        self._plane.roots.append(self)
        self._machine = cluster.machine(rank)
        self._machine.add_down_listener(self._on_down)
        if not self._machine.is_healthy:
            self._arm(inclusive=False)  # spawned on a machine already down
        self._lease = KeptLease(store, lease_ttl)
        self._candidacy = self.election.campaign(f"rank-{rank}", self._lease)
        self._candidacy.elected.callbacks.append(self._on_elected)

    @property
    def is_leader(self) -> bool:
        return self.election.leader() == f"rank-{self.rank}"

    def stop(self) -> None:
        self._retire()
        if self._lease.alive:
            self._lease.revoke()

    def mark_handled(self, ranks) -> None:
        """Recovery finished for these ranks; future scans may re-detect."""
        self._being_handled -= set(ranks)

    def _on_down(self) -> None:
        self._arm(inclusive=self.sim.running)

    def _on_elected(self, _event) -> None:
        # Elections happen in lease-expiry events, which precede the
        # scans due at the same instant.
        self._plane.wake(inclusive=True)

    def _arm(self, inclusive: bool) -> None:
        """Make the next scan instant a real event (the earliest asked for
        wins)."""
        if self._stopped:
            return
        at = self._beats.next_after(self.sim.now, inclusive)
        if at < self._tick_at:
            _call_at(self.sim, at, self._schedule_tick(at))

    def _schedule_tick(self, at: float) -> Callable[[], None]:
        self._tick_at = at
        self._tick_token += 1
        token = self._tick_token
        return lambda: self._tick(token)

    def _tick(self, token: int) -> None:
        if token != self._tick_token or self._stopped:
            return  # superseded by an earlier tick, or retired
        self._tick_at = math.inf
        self._beats.advance_to(self.sim.now)
        machine = self.cluster.machine(self.rank)
        if not machine.is_healthy:
            # The root machine itself died: its lease expires one TTL
            # after the last refresh and the election takes over.
            self._retire()
            self._lease.lapse(self._beats.last)
            return
        self._beats.last = self.sim.now  # lease refresh
        if machine is not self._machine:
            self._machine.remove_down_listener(self._on_down)
            self._machine = machine
            machine.add_down_listener(self._on_down)
        if self.is_leader and self._scan_once():
            self.sim.call_after(
                self.scan_interval,
                self._schedule_tick(self.sim.now + self.scan_interval),
            )

    def _retire(self) -> None:
        """No more scans or refreshes from this incarnation."""
        if self._stopped:
            return
        self._stopped = True
        self._machine.remove_down_listener(self._on_down)
        self._plane.roots.remove(self)

    def _scan_once(self) -> bool:
        """Report missing ranks; True while a later scan may report more."""
        healthy_keys = self.store.get_prefix(HEALTH_PREFIX)
        present = {int(key[len(HEALTH_PREFIX):]) for key in healthy_keys}
        absent = [rank for rank in range(self.cluster.size) if rank not in present]
        missing = [rank for rank in absent if rank not in self._being_handled]
        if missing:
            self._being_handled.update(missing)
            self.on_failure_detected(
                DetectedFailure(detected_at=self.sim.now, missing_ranks=missing)
            )
        return bool(absent) or self._plane.expiring()


# ------------------------------------------------------------------- detector


class FailureDetector:
    """The kernel's failure detection, the same for every policy.

    With ``use_agents`` every machine runs a worker and a root agent over
    one KV store and root election; the leader's scans detect (§3.2).
    Without, each failure is detected ``cost_model.detection_delay``
    later, with its time, its type and the ranks down when it struck.
    A detection firing while a recovery runs starts nothing.
    """

    def __init__(self, kernel, use_agents: bool, heartbeat_interval: float, lease_ttl: float):
        self.kernel = kernel
        self.use_agents = use_agents
        self.heartbeat_interval = heartbeat_interval
        self.lease_ttl = lease_ttl
        self.worker_agents: Dict[int, WorkerAgent] = {}
        self.root_agents: Dict[int, RootAgent] = {}
        #: (instant, ranks down then) of the last failure: one per instant.
        self._struck: Tuple[float, List[int]] = (math.nan, [])
        if use_agents:
            self.kvstore = KVStore(kernel.sim)
            self.election = Election(self.kvstore, ROOT_ELECTION_KEY)
            for rank in range(kernel.cluster.size):
                self.spawn(rank)

    def spawn(self, rank: int) -> None:
        kernel = self.kernel
        args = (kernel.sim, self.kvstore, kernel.cluster, rank)
        self.worker_agents[rank] = WorkerAgent(
            *args, self.heartbeat_interval, self.lease_ttl
        )
        self.root_agents[rank] = RootAgent(
            *args, self.election, kernel.begin_recovery,
            self.heartbeat_interval, self.lease_ttl,
        )

    @property
    def leader_rank(self) -> Optional[int]:
        """Rank of the current root-agent leader (``None`` without agents)."""
        for rank, agent in self.root_agents.items():
            if agent.is_leader:
                return rank
        return None

    def on_failure(self, event: FailureEvent) -> None:
        if self.use_agents:
            return  # lease expiry drives detection ~15 s later
        kernel = self.kernel
        at, ranks = self._struck
        if at != kernel.sim.now:
            ranks = []
            self._struck = (kernel.sim.now, ranks)
        ranks[:] = kernel.cluster.unhealthy_ranks()
        kernel.sim.call_after(
            kernel.cost_model.detection_delay,
            lambda: kernel.begin_recovery(
                DetectedFailure(kernel.sim.now, ranks, event.time)
            ),
        )

    def after_pass(self, failed_ranks: List[int]) -> None:
        """Fresh agents for every healthy rank whose worker lease is gone;
        the pass's ranks may be detected again."""
        cluster = self.kernel.cluster
        for rank, worker in list(self.worker_agents.items()):
            lease = worker.lease
            if (lease is None or not lease.alive) and cluster.machine(rank).is_healthy:
                self.spawn(rank)
        self.mark_handled(failed_ranks)

    def mark_handled(self, ranks: List[int]) -> None:
        """Recovery finished for ``ranks``: scans may report them again."""
        for agent in self.root_agents.values():
            agent.mark_handled(ranks)

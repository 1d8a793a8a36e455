"""GEMINI worker and root agents (paper Section 3.2).

Every training machine runs a *worker agent* that heartbeats its health
into the distributed KV store under a TTL lease; the machine is presumed
failed when its lease expires.  One machine additionally runs the *root
agent*, which periodically scans the health map, reacts to failures
(delegating to the recovery module), and is itself replaced through the KV
store's leader election if the root machine dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.cluster.cluster import Cluster
from repro.kvstore import Election, KVStore, Lease
from repro.sim import Simulator

#: Key prefixes in the KV store.
HEALTH_PREFIX = "gemini/health/"
ROOT_ELECTION_KEY = "gemini/root"

#: Defaults chosen so lease expiry ~= the paper's 15 s detection latency.
DEFAULT_HEARTBEAT_INTERVAL = 5.0
DEFAULT_LEASE_TTL = 15.0


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
        self.lease: Optional[Lease] = None
        self._stopped = False
        self._process = sim.process(self._heartbeat_loop(), name=f"worker-agent-{rank}")

    @property
    def health_key(self) -> str:
        return f"{HEALTH_PREFIX}{self.rank}"

    def stop(self) -> None:
        """Stop heartbeating (graceful shutdown)."""
        self._stopped = True
        if self.lease is not None and self.lease.alive:
            self.lease.revoke()

    def _heartbeat_loop(self):
        machine = self.cluster.machine(self.rank)
        self.lease = self.store.grant_lease(self.lease_ttl)
        while not self._stopped:
            current = self.cluster.machine(self.rank)
            if current is not machine or not current.is_healthy:
                # Our machine died or was replaced: this agent incarnation
                # is gone; the lease is left to expire naturally (a dead
                # process cannot revoke its own lease).
                return
            self.lease.refresh()
            self.store.put(
                self.health_key,
                {"machine_id": current.machine_id, "time": self.sim.now},
                lease=self.lease,
            )
            yield self.sim.timeout(self.heartbeat_interval)


@dataclass
class DetectedFailure:
    """What the root agent's scan observed."""

    detected_at: float
    missing_ranks: List[int]


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
        self._lease = store.grant_lease(lease_ttl)
        self._candidacy = self.election.campaign(f"rank-{rank}", self._lease)
        self._process = sim.process(self._scan_loop(), name=f"root-agent-{rank}")

    @property
    def is_leader(self) -> bool:
        return self.election.leader() == f"rank-{self.rank}"

    def stop(self) -> None:
        self._stopped = True
        if self._lease.alive:
            self._lease.revoke()

    def mark_handled(self, ranks) -> None:
        """Recovery finished for these ranks; future scans may re-detect."""
        self._being_handled -= set(ranks)

    def _scan_loop(self):
        # Startup grace: give every worker one lease TTL to publish its
        # first heartbeat before treating absence as failure.
        yield self.sim.timeout(self.scan_interval)
        while not self._stopped:
            machine = self.cluster.machine(self.rank)
            if not machine.is_healthy:
                return  # the root machine itself died; election takes over
            self._lease.refresh()
            if self.is_leader:
                self._scan_once()
            yield self.sim.timeout(self.scan_interval)

    def _scan_once(self) -> None:
        healthy_keys = self.store.get_prefix(HEALTH_PREFIX)
        present = {int(key[len(HEALTH_PREFIX):]) for key in healthy_keys}
        missing = [
            rank
            for rank in range(self.cluster.size)
            if rank not in present and rank not in self._being_handled
        ]
        if missing:
            self._being_handled.update(missing)
            self.on_failure_detected(
                DetectedFailure(detected_at=self.sim.now, missing_ranks=missing)
            )

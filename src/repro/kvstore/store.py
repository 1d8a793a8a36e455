"""Revisioned key-value store with leases and watches.

Semantics follow etcd closely enough for the recovery module:

- every mutation bumps a global revision;
- a :class:`Lease` has a TTL on the simulated clock and must be refreshed;
  keys attached to an expired lease are deleted automatically;
- watches observe PUT/DELETE events under a key prefix;
- ``compare_and_swap`` provides the atomic primitive elections build on.

The store is a single consistent entity (we do not simulate etcd's own
Raft replication — the paper treats etcd as a reliable external service).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim import Simulator


class WatchEventType(enum.Enum):
    PUT = "put"
    DELETE = "delete"


@dataclass(frozen=True)
class WatchEvent:
    """One observed mutation."""

    type: WatchEventType
    key: str
    value: Optional[Any]
    revision: int


class Lease:
    """A TTL lease; attached keys are deleted when it expires.

    Exactly one expiry callback is pending per live lease.  A refresh only
    moves ``expires_at``; when the pending callback fires and finds the
    lease refreshed since it was armed, it re-arms at the new
    ``expires_at`` instead of expiring.  A heartbeating lease therefore
    schedules a callback only when the previous one fires (every other
    heartbeat at a 15 s TTL and 5 s heartbeat), not on every refresh.
    """

    _ids = itertools.count(1)

    def __init__(self, store: "KVStore", ttl: float):
        if ttl <= 0:
            raise ValueError(f"lease TTL must be > 0, got {ttl}")
        self.lease_id = next(Lease._ids)
        self.store = store
        self.ttl = ttl
        self.expires_at = store.sim.now + ttl
        self.revoked = False
        self._arm_expiry()

    @property
    def alive(self) -> bool:
        return not self.revoked and self.store.sim.now < self.expires_at

    def refresh(self) -> None:
        """Keep-alive: push expiry out by one TTL from now."""
        if self.revoked:
            raise RuntimeError(f"lease {self.lease_id} already revoked")
        self.expires_at = self.store.sim.now + self.ttl

    def revoke(self) -> None:
        """Explicitly end the lease, deleting attached keys (idempotent)."""
        if self.revoked:
            return
        self.revoked = True
        self.store._on_lease_end(self)

    def _arm_expiry(self) -> None:
        expected = self.expires_at
        self.store.sim.call_at(expected, lambda: self._maybe_expire(expected))

    def _maybe_expire(self, expected: float) -> None:
        if self.revoked:
            return
        if self.expires_at != expected:
            self._arm_expiry()  # refreshed since this timer was armed
            return
        self.revoked = True
        self.store._on_lease_end(self)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "ended"
        return f"<Lease {self.lease_id} ttl={self.ttl} {state}>"


class KeptLease(Lease):
    """A lease whose holder keeps it alive on a fixed beat.

    A beat's refresh only moves ``expires_at`` one TTL past the beat, and
    nothing reads it while beats keep coming, so none is materialized:
    the lease is alive until the holder calls :meth:`lapse` with its last
    beat, and then expires one TTL after that beat, exactly where the
    refreshed lease would have.  No expiry callback is pending before
    that.
    """

    def __init__(self, store: "KVStore", ttl: float):
        if ttl <= 0:
            raise ValueError(f"lease TTL must be > 0, got {ttl}")
        self.lease_id = next(Lease._ids)
        self.store = store
        self.ttl = ttl
        self.expires_at = math.inf
        self.revoked = False

    def lapse(self, last_beat: float) -> None:
        """The holder stopped beating: expire one TTL after ``last_beat``."""
        self.expires_at = last_beat + self.ttl
        self._arm_expiry()


class KVStore:
    """The store proper."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.revision = 0
        self._data: Dict[str, Tuple[Any, int, Optional[Lease]]] = {}
        self._watches: List[Tuple[str, Callable[[WatchEvent], None]]] = []

    # -- leases ---------------------------------------------------------------

    def grant_lease(self, ttl: float) -> Lease:
        """Create a lease with the given TTL (seconds of simulated time)."""
        return Lease(self, ttl)

    def _on_lease_end(self, lease: Lease) -> None:
        doomed = [key for key, (_v, _r, l) in self._data.items() if l is lease]
        for key in doomed:
            self._delete(key)

    # -- reads -------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Value at ``key``, or None."""
        entry = self._data.get(key)
        return entry[0] if entry else None

    def get_prefix(self, prefix: str) -> Dict[str, Any]:
        """All key->value pairs under ``prefix``, sorted by key."""
        return {
            key: value
            for key, (value, _rev, _lease) in sorted(self._data.items())
            if key.startswith(prefix)
        }

    def __contains__(self, key: str) -> bool:
        return key in self._data

    # -- writes ---------------------------------------------------------------------

    def put(self, key: str, value: Any, lease: Optional[Lease] = None) -> int:
        """Set ``key``; returns the new revision."""
        if lease is not None and not lease.alive:
            raise RuntimeError(f"cannot put {key!r} with dead {lease!r}")
        self.revision += 1
        self._data[key] = (value, self.revision, lease)
        self._notify(WatchEvent(WatchEventType.PUT, key, value, self.revision))
        return self.revision

    def delete(self, key: str) -> bool:
        """Delete ``key``; returns whether it existed."""
        if key not in self._data:
            return False
        self._delete(key)
        return True

    def _delete(self, key: str) -> None:
        del self._data[key]
        self.revision += 1
        self._notify(WatchEvent(WatchEventType.DELETE, key, None, self.revision))

    def compare_and_swap(
        self, key: str, expected: Optional[Any], value: Any, lease: Optional[Lease] = None
    ) -> bool:
        """Atomic: set ``key`` to ``value`` iff its current value is ``expected``.

        ``expected=None`` means "key must not exist" (create-if-absent).
        """
        current = self.get(key)
        if current != expected:
            return False
        if expected is None and key in self._data:
            return False
        self.put(key, value, lease=lease)
        return True

    # -- watches ---------------------------------------------------------------------

    def watch(self, prefix: str, callback: Callable[[WatchEvent], None]) -> Callable[[], None]:
        """Observe mutations under ``prefix``; returns a cancel function."""
        entry = (prefix, callback)
        self._watches.append(entry)

        def cancel() -> None:
            try:
                self._watches.remove(entry)
            except ValueError:
                pass

        return cancel

    def _notify(self, event: WatchEvent) -> None:
        for prefix, callback in list(self._watches):
            if event.key.startswith(prefix):
                callback(event)

    def __repr__(self) -> str:
        return f"<KVStore rev={self.revision} keys={len(self._data)}>"

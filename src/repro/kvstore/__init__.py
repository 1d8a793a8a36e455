"""An etcd-like distributed key-value store (simulated).

GEMINI's failure-recovery module (Section 3.2) coordinates through etcd:
worker agents push heartbeats under leases, the root agent scans health
statuses, and root failover uses the store's leader-election primitive.
This package provides those semantics on the DES clock: revisioned
get/put/delete, compare-and-swap, TTL leases whose keys vanish on expiry,
prefix watches, and lease-based leader election.
"""

from repro.kvstore.store import KeptLease, KVStore, Lease, WatchEvent, WatchEventType
from repro.kvstore.election import Election

__all__ = [
    "Election",
    "KeptLease",
    "KVStore",
    "Lease",
    "WatchEvent",
    "WatchEventType",
]

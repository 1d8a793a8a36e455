"""Hierarchical checkpoint storage.

GEMINI's storage design (Section 3.1) is a three-tier hierarchy:

1. **local CPU memory** — every machine keeps a replica of its own shard;
2. **remote CPU memory** — each shard is replicated to ``m - 1`` peer
   machines chosen by the placement strategy;
3. **remote persistent storage** — an FSx-like store with ~20 Gbps
   aggregate bandwidth, holding low-frequency user-managed checkpoints.

Failure recovery fetches from the fastest tier that still has a complete,
consistent checkpoint.
"""

from repro.storage.cpu_memory import CPUCheckpointStore, ReplicaSlot, StorePlane
from repro.storage.persistent import PersistentStore
from repro.storage.serialization import (
    SERIALIZATION_BYTES_PER_SEC,
    SerializationModel,
)
from repro.storage.ssd import SSDStore

__all__ = [
    "CPUCheckpointStore",
    "PersistentStore",
    "ReplicaSlot",
    "SERIALIZATION_BYTES_PER_SEC",
    "SSDStore",
    "SerializationModel",
    "StorePlane",
]

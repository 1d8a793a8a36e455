"""Network substrate.

Models the inter-machine fabric (EFA-style, 100-400 Gbps per machine) as a
fluid-flow network: every active flow gets a fair share of each link it
crosses, and rates are recomputed whenever flows start or finish.  Training
collectives and checkpoint transfers are both flows on the same links, so
checkpoint traffic genuinely contends with (and, when GEMINI schedules it
into idle timespans, avoids contending with) training traffic — the exact
effect Sections 5 and 7.4 of the paper are about.

A separate per-machine copy engine models GPU<->CPU (D2H/H2D) transfers,
whose bandwidth the paper measured to be comparable to the network
(Section 5.2), making the pipelined double-buffer scheme necessary.
"""

from repro.network.cost import CommCostModel
from repro.network.fabric import CopyEngine, Fabric, Flow, Link, TransferAborted
from repro.network.topology import (
    FlatTopology,
    Position,
    RackTopology,
    SuperblockTopology,
    Topology,
)

__all__ = [
    "CommCostModel",
    "CopyEngine",
    "Fabric",
    "FlatTopology",
    "Flow",
    "Link",
    "Position",
    "RackTopology",
    "SuperblockTopology",
    "Topology",
    "TransferAborted",
]

"""Fluid-flow network fabric and GPU<->CPU copy engines.

Every machine has one egress and one ingress link of the instance's network
bandwidth.  A :class:`Flow` crosses the sender's egress and the receiver's
ingress; its instantaneous rate is the minimum fair share across those
links, recomputed whenever any flow starts or finishes.  This captures the
contention that matters here: checkpoint traffic sharing a sender NIC with
a training collective slows the collective down proportionally.

The fluid model is incremental: settling advances only active flows (link
busy time is interval-accounted per link, not scanned), and the rate
recompute touches only flows on links whose flow count changed since the
last recompute — the assigned rates are bit-identical to a full recompute
because a fair share depends only on the link's own flow count.  The naive
from-scratch model lives in ``tests/network/reference.py`` and the
differential test pins the two against each other on random workloads.

Each flow carries its own progress (``remaining``, ``rate``); the fabric
keeps the active ones in one list, ``_act``, that settle, the next-finish
scan and finished detection each walk once.  A flow's ``_pos`` is its
index there, so removal is an O(1) swap with the last active flow, and
iteration order over ``_act`` is insertion order, not set order.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Set

from repro.sim import Event, Simulator

# A flow is complete when less than one byte remains: float rounding in
# rate*elapsed products leaves sub-byte residues on multi-GB transfers,
# which must count as done or the wakeup loop would chase ever-smaller
# residues forever.
_EPS = 1.0
# Wakeup timers are floored to a nanosecond so the clock always advances:
# at t~100 s the float64 time resolution is ~1e-14 s, and a residue's
# finish delta can fall below it, freezing the clock.
_MIN_WAKEUP = 1e-9


class TransferAborted(Exception):
    """A flow was aborted because an endpoint machine failed."""


class Link:
    """One direction of a machine NIC (or any shared pipe)."""

    __slots__ = (
        "name", "capacity", "flows", "nflows", "busy_time", "_busy_since", "attached",
    )

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"link capacity must be > 0, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.flows: Set["Flow"] = set()
        #: flow count mirrored as a plain int so ``fair_share`` (called per
        #: flow per link in the recompute pass) reads an attribute instead
        #: of sizing the set.
        self.nflows = 0
        #: cumulative busy time over *closed* busy intervals; while a busy
        #: interval is open (``_busy_since`` set), use :meth:`busy_seconds`.
        self.busy_time = 0.0
        #: start of the current busy interval (first flow arrived), or
        #: ``None`` while idle.  Interval accounting replaces the old
        #: per-settle scan over every link in the fabric.
        self._busy_since: Optional[float] = None
        #: flips False on detach; lets flows check endpoint liveness in
        #: O(1) instead of scanning the fabric's link tables.
        self.attached = True

    def fair_share(self) -> float:
        """Equal split of capacity among active flows."""
        count = self.nflows
        if not count:
            return self.capacity
        return self.capacity / count

    def busy_seconds(self, now: float) -> float:
        """Cumulative busy time as of ``now``, including any open interval."""
        if self._busy_since is not None:
            return self.busy_time + (now - self._busy_since)
        return self.busy_time

    def __repr__(self) -> str:
        return f"<Link {self.name} flows={len(self.flows)}>"


class Flow:
    """An in-flight transfer across a set of links.

    The ``done`` event succeeds with the flow when the last byte lands, or
    fails with :class:`TransferAborted` if an endpoint dies first.

    ``remaining`` (bytes left to deliver) and ``rate`` (the assigned fair
    share) advance while the flow is active and keep their last values
    after it finishes or aborts.  ``_pos`` is the flow's index in the
    fabric's active list, or -1 while it is not active.
    """

    __slots__ = (
        "flow_id", "links", "nbytes", "remaining", "tag", "rate", "_pos",
        "done", "started_at", "finished_at",
    )

    _ids = itertools.count()

    def __init__(self, fabric: "Fabric", links: List[Link], nbytes: float, tag: str):
        self.flow_id = next(Flow._ids)
        self.links = links
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.tag = tag
        self.rate = 0.0
        self._pos = -1
        self.done: Event = fabric.sim.event(name=f"Flow({tag})")
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def __repr__(self) -> str:
        return f"<Flow#{self.flow_id} {self.tag} {self.remaining:.0f}B left>"


class Fabric:
    """The cluster-wide network: links, flows, and the rate recomputation loop."""

    def __init__(self, sim: Simulator, alpha: float = 0.0, obs=None, topology=None):
        self.sim = sim
        #: default per-transfer startup latency (seconds)
        self.alpha = alpha
        #: optional :class:`repro.network.topology.Topology` owning shared
        #: transit links (rack uplinks, superblock spines) and resolving
        #: the transit segment of every path.  ``None`` (and the flat
        #: topology) leave every path at the classic two-link star shape.
        self._topology = topology
        self._egress: Dict[str, Link] = {}
        self._ingress: Dict[str, Link] = {}
        #: active flows; each flow's ``_pos`` is its index here.
        self._act: List[Flow] = []
        #: links whose flow count changed since the last rate recompute;
        #: only flows touching these can see a different fair share.
        self._dirty_links: Set[Link] = set()
        self._last_settle = sim.now
        self._wakeup_token = 0
        #: observability bundle; instrument handles are cached per flow tag
        self._obs = obs
        self._flow_metrics: Dict[str, tuple] = {}

    # -- observability ----------------------------------------------------------

    def _record_flow_done(self, flow: Flow) -> None:
        if self._obs is None or not self._obs.enabled:
            return
        handles = self._flow_metrics.get(flow.tag)
        if handles is None:
            metrics = self._obs.metrics
            labels = {"tag": flow.tag}
            handles = (
                metrics.counter(
                    "repro_network_bytes_total",
                    help="bytes delivered by completed fabric flows",
                    labels=labels,
                ),
                metrics.counter(
                    "repro_network_transfers_total",
                    help="fabric flows completed",
                    labels=labels,
                ),
                metrics.histogram(
                    "repro_network_transfer_seconds",
                    help="completed flow durations (start to last byte)",
                    labels=labels,
                ),
            )
            self._flow_metrics[flow.tag] = handles
        bytes_total, transfers_total, seconds = handles
        bytes_total.inc(flow.nbytes)
        transfers_total.inc()
        if flow.started_at is not None and flow.finished_at is not None:
            seconds.observe(flow.finished_at - flow.started_at)

    def _record_flow_aborted(self, flow: Flow) -> None:
        if self._obs is None or not self._obs.enabled:
            return
        self._obs.metrics.counter(
            "repro_network_transfers_aborted_total",
            help="fabric flows aborted by endpoint failure",
            labels={"tag": flow.tag},
        ).inc()

    def export_link_metrics(self) -> None:
        """Publish per-link busy time as gauges (call after a run settles)."""
        if self._obs is None or not self._obs.enabled:
            return
        self._settle()
        now = self.sim.now
        links = list(self._egress.values()) + list(self._ingress.values())
        if self._topology is not None:
            links.extend(self._topology.links())
        for link in links:
            self._obs.metrics.gauge(
                "repro_link_busy_seconds",
                help="cumulative time each link had at least one active flow",
                labels={"link": link.name},
            ).set(link.busy_seconds(now))

    # -- topology ---------------------------------------------------------------

    def attach(self, machine_id: str, bandwidth: float, position=None) -> None:
        """Register a machine NIC (full duplex: egress + ingress links).

        ``position`` (a :class:`repro.network.topology.Position`) places
        the NIC in the topology hierarchy; it is required by non-flat
        topologies and ignored otherwise.
        """
        if machine_id in self._egress:
            raise ValueError(f"machine {machine_id} already attached")
        if self._topology is not None:
            self._topology.register(machine_id, position)
        self._egress[machine_id] = Link(f"{machine_id}.out", bandwidth)
        self._ingress[machine_id] = Link(f"{machine_id}.in", bandwidth)

    def detach(self, machine_id: str) -> None:
        """Remove a machine, aborting all flows touching its links.

        Shared transit links (rack uplinks) are infrastructure, not part
        of the machine: they stay up, and flows between *other* machines
        crossing them are unaffected.
        """
        if self._topology is not None:
            self._topology.unregister(machine_id)
        egress = self._egress.pop(machine_id, None)
        ingress = self._ingress.pop(machine_id, None)
        if egress is not None:
            egress.attached = False
        if ingress is not None:
            ingress.attached = False
        doomed = [
            flow
            for flow in self._act
            if (egress in flow.links) or (ingress in flow.links)
        ]
        self._settle()
        for flow in doomed:
            self._remove_flow(flow)
            self._record_flow_aborted(flow)
            flow.done.fail(TransferAborted(f"machine {machine_id} failed"))
            flow.done._defuse()
        self._recompute()

    def set_bandwidth(
        self, machine_id: str, bandwidth: float, direction: str = "both"
    ) -> None:
        """Change a machine NIC's link capacity in place (degradation).

        Models transient bandwidth loss (a congested or flapping switch
        port) without detaching the machine: active flows keep their
        progress, and their rates are re-derived immediately from the new
        capacity via the normal dirty-link recompute.  Restoring the
        original capacity later is another call.
        """
        if bandwidth <= 0:
            raise ValueError(f"link capacity must be > 0, got {bandwidth}")
        if direction not in ("out", "in", "both"):
            raise ValueError(f"direction must be out|in|both, got {direction!r}")
        if machine_id not in self._egress:
            raise KeyError(f"machine {machine_id} is not attached to the fabric")
        links = []
        if direction in ("out", "both"):
            links.append(self._egress[machine_id])
        if direction in ("in", "both"):
            links.append(self._ingress[machine_id])
        self._settle()
        for link in links:
            link.capacity = bandwidth
            self._dirty_links.add(link)
        self._recompute()

    def has_machine(self, machine_id: str) -> bool:
        return machine_id in self._egress

    @property
    def topology(self):
        """The attached topology object, or ``None`` (classic star fabric)."""
        return self._topology

    def egress(self, machine_id: str) -> Link:
        return self._egress[machine_id]

    def ingress(self, machine_id: str) -> Link:
        return self._ingress[machine_id]

    # -- transfers ---------------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        tag: str = "transfer",
        alpha: Optional[float] = None,
    ) -> Flow:
        """Start a point-to-point transfer; returns the flow (await ``.done``).

        The per-transfer startup latency ``alpha`` elapses before the flow
        starts consuming bandwidth, matching f(s) = alpha + s/B for an
        uncontended link.  With a topology attached, the path additionally
        crosses the transit links it resolves (rack uplinks, spines);
        without one — or across a flat topology — the path is the classic
        ``[src egress, dst ingress]`` pair, bit-exactly.
        """
        if src == dst:
            raise ValueError(f"transfer to self ({src}); use a copy engine instead")
        for machine_id in (src, dst):
            if machine_id not in self._egress:
                raise KeyError(f"machine {machine_id} is not attached to the fabric")
        links = [self._egress[src]]
        if self._topology is not None:
            links.extend(self._topology.transit_links(src, dst))
        links.append(self._ingress[dst])
        return self._launch(links, nbytes, tag, alpha)

    def occupy(
        self,
        machine_id: str,
        nbytes: float,
        direction: str = "out",
        tag: str = "collective",
        alpha: Optional[float] = None,
    ) -> Flow:
        """Start a single-link flow (used to model collective phases).

        A ring collective keeps every participant's NIC busy for
        ``volume / bandwidth`` seconds; we model each participant's share as
        one egress (or ingress) flow of that volume.
        """
        link = (self._egress if direction == "out" else self._ingress)[machine_id]
        return self._launch([link], nbytes, tag, alpha)

    def _launch(
        self, links: List[Link], nbytes: float, tag: str, alpha: Optional[float]
    ) -> Flow:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        flow = Flow(self, links, nbytes, tag)
        startup = self.alpha if alpha is None else alpha
        if nbytes == 0:
            # Zero-byte transfers complete after just the startup latency.
            def finish_empty():
                flow.started_at = flow.finished_at = self.sim.now
                self._record_flow_done(flow)
                flow.done.succeed(flow)

            self.sim.call_after(startup, finish_empty)
            return flow
        if startup > 0:
            self.sim.call_after(startup, lambda: self._activate(flow))
        else:
            self._activate(flow)
        return flow

    def _activate(self, flow: Flow) -> None:
        # All its links must still exist (endpoint may have died during alpha).
        for link in flow.links:
            if not link.attached:
                flow.done.fail(TransferAborted(f"{link.name} vanished during startup"))
                flow.done._defuse()
                return
        self._settle()
        now = self.sim.now
        flow.started_at = now
        flow._pos = len(self._act)
        self._act.append(flow)
        dirty = self._dirty_links
        for link in flow.links:
            flows = link.flows
            if not flows:
                link._busy_since = now
            flows.add(flow)
            link.nflows += 1
            dirty.add(link)
        self._recompute()

    # -- fluid model core -----------------------------------------------------------

    def _settle(self) -> None:
        """Advance every active flow's progress from _last_settle to now.

        Link busy time is *not* accumulated here: each link tracks its own
        busy interval (``_busy_since``) opened when its first flow arrives
        and closed when its last flow leaves, so settling costs O(active
        flows), not O(all links in the fabric).
        """
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed > 0:
            for flow in self._act:
                left = flow.remaining - flow.rate * elapsed
                flow.remaining = left if left > 0.0 else 0.0
        self._last_settle = now

    def _remove_flow(self, flow: Flow) -> None:
        pos = flow._pos
        if pos >= 0:
            # Swap-remove: the last active flow takes over this index.
            act = self._act
            moved = act.pop()
            if moved is not flow:
                act[pos] = moved
                moved._pos = pos
            flow._pos = -1
        now = self.sim.now
        dirty = self._dirty_links
        for link in flow.links:
            flows = link.flows
            if flow in flows:
                flows.remove(flow)
                link.nflows -= 1
            if not flows and link._busy_since is not None:
                link.busy_time += now - link._busy_since
                link._busy_since = None
            dirty.add(link)

    def _recompute(self) -> None:
        """Assign bottleneck fair shares incrementally; schedule next wakeup.

        A flow's rate is the min of ``capacity / nflows`` over its own
        links, so only flows touching a link whose flow count changed since
        the last recompute can see a different rate — everything else keeps
        its value (bit-identical to recomputing it).  When nothing changed
        the rate pass is skipped entirely and only the wakeup is refreshed.
        """
        dirty = self._dirty_links
        if dirty:
            for link in dirty:
                for flow in link.flows:
                    links = flow.links
                    rate = links[0].fair_share()
                    for other in links[1:]:
                        share = other.fair_share()
                        if share < rate:
                            rate = share
                    flow.rate = rate
            dirty.clear()
        self._wakeup_token += 1
        token = self._wakeup_token
        next_finish = math.inf
        for flow in self._act:
            rate = flow.rate
            if rate > 0:
                finish = flow.remaining / rate
                if finish < next_finish:
                    next_finish = finish
        if math.isfinite(next_finish):
            self.sim.call_after(
                max(next_finish, _MIN_WAKEUP), lambda: self._on_wakeup(token)
            )

    def _on_wakeup(self, token: int) -> None:
        if token != self._wakeup_token:
            return  # superseded by a more recent recompute
        self._settle()
        finished = [flow for flow in self._act if flow.remaining <= _EPS]
        for flow in finished:
            self._remove_flow(flow)
            flow.finished_at = self.sim.now
            self._record_flow_done(flow)
            flow.done.succeed(flow)
        self._recompute()


class CopyEngine:
    """Per-machine GPU<->CPU DMA engine: FIFO copies at fixed bandwidth.

    The paper's pipelining scheme (Fig 5d) overlaps the receiver's D2H copy
    of chunk *i* with the network receive of chunk *i+1*; a FIFO engine at
    the measured ~400 Gbps copy bandwidth reproduces that behaviour.
    """

    __slots__ = ("sim", "bandwidth", "name", "_ready_at", "_busy_accrued", "_span_start")

    def __init__(self, sim: Simulator, bandwidth: float, name: str = "copy"):
        if bandwidth <= 0:
            raise ValueError(f"copy bandwidth must be > 0, got {bandwidth}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.name = name
        self._ready_at = 0.0
        #: busy time of spans that have fully drained (see busy_time).
        self._busy_accrued = 0.0
        #: start of the current back-to-back busy span, or None when idle.
        self._span_start: Optional[float] = None

    @property
    def busy_time(self) -> float:
        """Busy seconds that have actually elapsed as of ``sim.now``.

        Pro-rated: a copy in flight contributes only its elapsed portion,
        so a run that ends (or a machine that fails) mid-copy never
        reports busy time that never happened.  FIFO queueing makes each
        busy span contiguous, so one (start, ready_at) pair suffices.
        """
        if self._span_start is None:
            return self._busy_accrued
        busy_until = min(self.sim.now, self._ready_at)
        if busy_until <= self._span_start:
            return self._busy_accrued
        return self._busy_accrued + (busy_until - self._span_start)

    def copy(self, nbytes: float, tag: str = "d2h") -> Event:
        """Enqueue a copy; the event fires when the copy completes."""
        if nbytes < 0:
            raise ValueError(f"negative copy size: {nbytes}")
        now = self.sim.now
        if self._span_start is not None and now >= self._ready_at:
            # The previous span drained before this copy arrived: close it.
            self._busy_accrued += self._ready_at - self._span_start
            self._span_start = None
        duration = nbytes / self.bandwidth
        start = max(now, self._ready_at)
        if self._span_start is None:
            self._span_start = start
        finish = start + duration
        self._ready_at = finish
        event = self.sim.event(name=f"Copy({self.name}:{tag})")
        self.sim.call_at(finish, lambda: event.succeed(nbytes))
        return event

    def time_for(self, nbytes: float) -> float:
        """Copy duration ignoring queueing."""
        return nbytes / self.bandwidth

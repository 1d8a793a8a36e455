"""Chaos failure models beyond independent Poisson arrivals.

GEMINI's placement theory (Section 4 / Theorem 1) is about *k
simultaneous* machine losses: a rack power feed or a shared switch takes
out every machine behind it at once, and whether CPU-memory recovery
survives depends on how those k losses land relative to the replica
placement groups.  The stock :class:`repro.failures.PoissonFailureInjector`
never produces that regime — arrivals are independent, one machine at a
time.  This module adds the generators the chaos campaigns run:

- :class:`CorrelatedFailureInjector` — fault domains (racks / switches)
  drawn over the cluster; each arrival downs one whole domain at once.
- :class:`EmpiricalFailureInjector` — inter-arrival gaps and severities
  (failure type, machine count) sampled from an OPT-175B-logbook-style
  weighted table instead of a memoryless process.
- :class:`AdversarialFailureInjector` — reads the *live* placement and
  targets a full replica set: the worst case Theorem 1 bounds, forcing
  the Section 6 Case-2 fallback to persistent storage (or, with
  ``spare_one``, the hardest still-recoverable case).

Every generator runs on :class:`repro.failures.injector.ArrivalProcess`
(one named :class:`repro.sim.RandomStreams` stream each) and injects
through :func:`repro.failures.injector.deliver`: ranks that are already
down are filtered out at fire time and the events actually delivered
are appended to ``injected``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.core.placement import Placement
from repro.failures.injector import ArrivalProcess, FailureHandler, deliver
from repro.failures.types import FailureType
from repro.sim import RandomStreams, Simulator
from repro.units import DAY, HOUR, MINUTE

__all__ = [
    "AdversarialFailureInjector",
    "CorrelatedFailureInjector",
    "EmpiricalFailureInjector",
    "FaultDomainTopology",
    "OPT_INTERARRIVAL_WEIGHTS",
    "OPT_SEVERITY_WEIGHTS",
]


@dataclass(frozen=True)
class FaultDomainTopology:
    """A partition of cluster ranks into co-failing fault domains.

    A domain models the blast radius of one shared component (rack power
    feed, top-of-rack switch): when it faults, every machine in the
    domain goes down simultaneously.  Domains are disjoint and cover a
    subset of the cluster; ranks outside every domain never fail via
    this topology.
    """

    domains: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if not self.domains:
            raise ValueError("a topology needs at least one fault domain")
        seen: List[int] = [rank for domain in self.domains for rank in domain]
        if len(set(seen)) != len(seen):
            raise ValueError("a rank appears in more than one fault domain")
        if any(not domain for domain in self.domains):
            raise ValueError("empty fault domain")

    @classmethod
    def draw(
        cls, num_machines: int, domain_size: int, rng
    ) -> "FaultDomainTopology":
        """Randomly assign ranks to domains of ``domain_size``.

        The assignment is shuffled (not contiguous) deliberately: racks
        do not respect training-rank order, so a domain fault hits an
        arbitrary subset of the placement — which is exactly what makes
        correlated failures the adversary of Theorem 1's group-vs-ring
        comparison.  The final domain holds the remainder when
        ``domain_size`` does not divide ``num_machines``.
        """
        if num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {num_machines}")
        if not 1 <= domain_size <= num_machines:
            raise ValueError(
                f"domain_size must be in [1, {num_machines}], got {domain_size}"
            )
        ranks = list(range(num_machines))
        rng.shuffle(ranks)
        domains = tuple(
            tuple(sorted(ranks[i : i + domain_size]))
            for i in range(0, num_machines, domain_size)
        )
        return cls(domains=domains)

    @classmethod
    def from_spec(cls, spec) -> "FaultDomainTopology":
        """Rack-level domains of a :class:`repro.cluster.catalog.ClusterSpec`.

        Unlike :meth:`draw` this is the *real* topology: the domain of a
        rank is the rack its machine is bolted into, so a domain fault is
        a literal rack loss.  Raises on a flat spec — a single-switch
        cluster has no sub-cluster blast radius to model.
        """
        domains = spec.fault_domains()
        if domains is None:
            raise ValueError(
                f"cluster spec {spec.name!r} has a flat topology; "
                "rack fault domains need a rack or superblock topology"
            )
        return cls(domains=domains)

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def domain_of(self, rank: int) -> Tuple[int, ...]:
        for domain in self.domains:
            if rank in domain:
                return domain
        raise KeyError(f"rank {rank} is in no fault domain")


def _deliver_susceptible(
    injector: ArrivalProcess, failure_type: FailureType, ranks: List[int]
) -> None:
    """Deliver ``failure_type`` to the sorted subset of ``ranks`` it can
    still take down: software failures only hit healthy machines;
    hardware failures also escalate a PROCESS_DOWN machine (its hardware
    was still alive).  Nothing is delivered when every target is down."""
    cluster = injector.cluster
    if failure_type is FailureType.HARDWARE:
        live = [rank for rank in sorted(ranks) if cluster.machine(rank).hardware_alive]
    else:
        live = [rank for rank in sorted(ranks) if cluster.machine(rank).is_healthy]
    if live:
        deliver(
            cluster, injector.handler, injector.injected,
            injector.sim.now, failure_type, live,
        )


class CorrelatedFailureInjector(ArrivalProcess):
    """Domain faults: each arrival downs one whole fault domain at once.

    Arrivals are Poisson at ``events_per_day`` *per cluster*; each picks
    a domain uniformly and hardware-fails every machine in it
    simultaneously — the k-concurrent-loss regime Theorem 1 reasons
    about.  Pass a :class:`FaultDomainTopology` to pin the topology, or
    let one be drawn from the ``chaos-domains`` stream
    (``domain_source="random"``, the default), or derive the *real* rack
    domains from a cluster spec (``domain_source="topology"`` +
    ``cluster_spec=``) so the chaos campaign downs actual racks.
    """

    stream_name = "chaos-correlated"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        handler: FailureHandler,
        *,
        events_per_day: float,
        domain_size: int = 2,
        topology: Optional[FaultDomainTopology] = None,
        domain_source: str = "random",
        cluster_spec=None,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if domain_source not in ("random", "topology"):
            raise ValueError(
                f'domain_source must be "random" or "topology", got {domain_source!r}'
            )
        streams = rng or RandomStreams(0)
        if topology is not None:
            self.topology = topology
        elif domain_source == "topology":
            spec = cluster_spec if cluster_spec is not None else getattr(
                cluster, "spec", None
            )
            if spec is None:
                raise ValueError(
                    'domain_source="topology" needs a cluster built from a '
                    "ClusterSpec (or an explicit cluster_spec=)"
                )
            self.topology = FaultDomainTopology.from_spec(spec)
        else:
            # Bit-exact legacy path: the draw consumes the same
            # "chaos-domains" stream it always did.
            self.topology = FaultDomainTopology.draw(
                cluster.size, domain_size, streams.stream("chaos-domains")
            )
        super().__init__(
            sim,
            cluster,
            handler,
            events_per_day=events_per_day,
            rng=streams,
            horizon=horizon,
        )

    def _strike(self) -> None:
        domains = self.topology.domains
        domain = domains[self._rng.randrange(len(domains))]
        _deliver_susceptible(self, FailureType.HARDWARE, list(domain))


#: OPT-175B-logbook-flavoured inter-arrival buckets: (seconds, weight).
#: The logbook's incidents cluster — bursts minutes-to-hours apart with
#: occasional multi-day quiet stretches — which a memoryless process
#: cannot reproduce.
OPT_INTERARRIVAL_WEIGHTS: Tuple[Tuple[float, float], ...] = (
    (30 * MINUTE, 4.0),
    (2 * HOUR, 6.0),
    (6 * HOUR, 5.0),
    (1 * DAY, 3.0),
    (3 * DAY, 1.0),
)

#: Severity table: (failure type, machines hit simultaneously, weight).
#: Most incidents are single-machine software crashes; hardware loss of
#: one machine is common, of a pair (shared rack component) rarer, and a
#: four-machine sweep is the tail.
OPT_SEVERITY_WEIGHTS: Tuple[Tuple[FailureType, int, float], ...] = (
    (FailureType.SOFTWARE, 1, 10.0),
    (FailureType.HARDWARE, 1, 5.0),
    (FailureType.HARDWARE, 2, 2.0),
    (FailureType.SOFTWARE, 2, 1.0),
    (FailureType.HARDWARE, 4, 0.5),
)


class EmpiricalFailureInjector(ArrivalProcess):
    """Failures drawn from an empirical (logbook-style) distribution.

    Inter-arrival gaps are sampled from weighted buckets (jittered
    uniformly within ±40% of the bucket midpoint) and each arrival draws
    a ``(failure type, machine count)`` severity; victims are sampled
    uniformly from the susceptible machines.  ``time_scale`` compresses
    the gaps so short campaign horizons still see the whole severity
    distribution.
    """

    stream_name = "chaos-empirical"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        handler: FailureHandler,
        *,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
        time_scale: float = 1.0,
        interarrival: Tuple[Tuple[float, float], ...] = OPT_INTERARRIVAL_WEIGHTS,
        severity: Tuple[Tuple[FailureType, int, float], ...] = OPT_SEVERITY_WEIGHTS,
    ):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        if not interarrival or not severity:
            raise ValueError("interarrival and severity tables must be non-empty")
        self.time_scale = time_scale
        self.interarrival = tuple(interarrival)
        self.severity = tuple(severity)
        # events_per_day only arms the scheduler; _next_gap replaces the draw.
        super().__init__(
            sim, cluster, handler, events_per_day=1.0, rng=rng, horizon=horizon
        )

    def _next_gap(self) -> float:
        gaps = [gap for gap, _weight in self.interarrival]
        weights = [weight for _gap, weight in self.interarrival]
        base = self._rng.choices(gaps, weights=weights)[0]
        return base * self._rng.uniform(0.6, 1.4) * self.time_scale

    def _strike(self) -> None:
        kinds = [(kind, count) for kind, count, _weight in self.severity]
        weights = [weight for _kind, _count, weight in self.severity]
        failure_type, count = self._rng.choices(kinds, weights=weights)[0]
        if failure_type is FailureType.HARDWARE:
            pool = [
                rank
                for rank in range(self.cluster.size)
                if self.cluster.machine(rank).hardware_alive
            ]
        else:
            pool = self.cluster.healthy_ranks()
        if not pool:
            return
        victims = self._rng.sample(pool, min(count, len(pool)))
        _deliver_susceptible(self, failure_type, victims)


#: zero-argument callable returning the live placement (or None).
PlacementProvider = Callable[[], Optional[Placement]]


class AdversarialFailureInjector(ArrivalProcess):
    """Targets a whole replica-placement group: Theorem 1's worst case.

    ``placement_provider`` is read at *fire time*, so the adversary
    tracks replacements and any placement changes.  Each strike picks
    one replica set of the live placement and hardware-fails it:

    - default (``spare_one=False``): the entire set dies — no surviving
      replica of the owner's shard, forcing the Section 6 Case-2
      fallback to persistent storage;
    - ``spare_one=True``: one member is left alive — the hardest
      still-recoverable case, which must come back through the spared
      peer's CPU memory over the network.

    Policies without a placement (the remote-storage baselines) get
    ``fallback_size`` consecutive ranks instead, which still exercises
    multi-machine simultaneous loss.
    """

    stream_name = "chaos-adversarial"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        handler: FailureHandler,
        *,
        events_per_day: float,
        placement_provider: Optional[PlacementProvider] = None,
        spare_one: bool = False,
        fallback_size: int = 2,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if fallback_size < 1:
            raise ValueError(f"fallback_size must be >= 1, got {fallback_size}")
        self.placement_provider = placement_provider
        self.spare_one = spare_one
        self.fallback_size = fallback_size
        super().__init__(
            sim,
            cluster,
            handler,
            events_per_day=events_per_day,
            rng=rng,
            horizon=horizon,
        )

    def _target(self) -> List[int]:
        placement = (
            self.placement_provider() if self.placement_provider is not None else None
        )
        if placement is not None:
            # Distinct replica sets, canonically ordered so the pick is
            # independent of set-iteration order.
            groups = sorted({tuple(sorted(s)) for s in placement.replica_sets})
            group = list(groups[self._rng.randrange(len(groups))])
            if self.spare_one and len(group) > 1:
                spared = group[self._rng.randrange(len(group))]
                group = [rank for rank in group if rank != spared]
            return group
        size = min(self.fallback_size, self.cluster.size)
        start = self._rng.randrange(self.cluster.size)
        return sorted((start + i) % self.cluster.size for i in range(size))

    def _strike(self) -> None:
        _deliver_susceptible(self, FailureType.HARDWARE, self._target())

"""Non-fail-stop degradation injectors.

The failures of Section 6 are fail-stop: a process or machine dies and
the detector notices.  Real clusters also degrade *without* dying — a
NIC drops to a fraction of line rate, one machine iterates slowly and
stalls the synchronous collective behind it, or a CPU-memory checkpoint
replica is silently corrupted.  These injectors exercise those regimes:

- :class:`BandwidthDegradationInjector` — transiently cuts one
  machine's NIC capacity on the training fabric (both directions);
  active flows are re-rated in place and the original capacity is
  restored after a window.
- :class:`StragglerInjector` — transiently scales the kernel's
  iteration time up (synchronous training runs at the slowest
  machine's pace).
- :class:`ReplicaCorruptionInjector` — silently loses CPU-memory
  checkpoint replicas while every machine stays healthy; optionally
  couples an immediate software failure so the very next recovery must
  take the Section 6 fallback to persistent storage (per-iteration
  commits would otherwise repair the replica before anything noticed).

Each arrival is logged to the system's :class:`~repro.trace.TraceLog`
with :attr:`~repro.trace.TraceKind.DEGRADATION` and mirrored on the
injector's ``injected`` list.  Injectors only touch documented chaos
surfaces (``Fabric.set_bandwidth``, ``SimulatedTrainingSystem.
iteration_scale``, ``CPUCheckpointStore.corrupt_shard``), so they
compose with any policy; ones whose substrate a policy lacks (no
fabric, no stores) simply no-op.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Type

from repro.core.kernel import SimulatedTrainingSystem
from repro.failures.injector import ArrivalProcess, deliver
from repro.failures.types import FailureEvent, FailureType
from repro.sim import RandomStreams
from repro.trace import TraceKind

__all__ = [
    "BandwidthDegradationInjector",
    "DEGRADERS",
    "ReplicaCorruptionInjector",
    "StragglerInjector",
]


class _DegradationInjector(ArrivalProcess):
    """Non-fail-stop arrivals against one system: the shared arrival
    loop plus the helpers every degradation strike uses."""

    def __init__(
        self,
        system: SimulatedTrainingSystem,
        *,
        events_per_day: float,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        self.system = system
        super().__init__(
            system.sim,
            system.cluster,
            system.inject_failure,
            events_per_day=events_per_day,
            rng=rng,
            horizon=horizon,
        )

    def _interrupt_macro_ticks(self) -> None:
        """Degradations make further coalescing illegal: put completed
        macro-window boundaries on the books, then truncate the window
        to its in-flight iteration so the controller re-plans at the
        degraded parameters.  Every ``_strike`` calls this first — the
        strike reads (and records trace entries against) job state the
        lazy window would otherwise leave stale."""
        self.system.settle_iterations(strict=True)
        self.system.macro_interrupt()

    def _record(self, kind: str, **detail: Any) -> None:
        entry = dict(degradation=kind, **detail)
        self.system.trace.record(self.sim.now, TraceKind.DEGRADATION, **entry)
        self.injected.append(dict(entry, time=self.sim.now))

    def _pick_healthy_rank(self) -> Optional[int]:
        healthy = self.cluster.healthy_ranks()
        if not healthy:
            return None
        return healthy[self._rng.randrange(len(healthy))]


class BandwidthDegradationInjector(_DegradationInjector):
    """Transient NIC bandwidth loss on the training fabric.

    Each arrival picks a healthy machine and scales both directions of
    its NIC to ``factor`` of the current capacity for ``duration``
    seconds; in-flight fabric flows (checkpoint re-replication, recovery
    retrievals) slow down immediately and speed back up on restore.  If
    the machine is replaced while degraded, the restore is skipped — the
    replacement attaches at full capacity under a fresh machine id.
    Policies without a fabric (the remote-storage baselines) are
    unaffected: strikes no-op.
    """

    stream_name = "chaos-bandwidth"

    def __init__(
        self,
        system: SimulatedTrainingSystem,
        *,
        events_per_day: float,
        factor: float = 0.25,
        duration: float = 120.0,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if not 0 < factor < 1:
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.factor = factor
        self.duration = duration
        self._degraded_ids: Set[str] = set()
        super().__init__(
            system, events_per_day=events_per_day, rng=rng, horizon=horizon
        )

    def _strike(self) -> None:
        self._interrupt_macro_ticks()
        fabric = getattr(self.system.policy, "fabric", None)
        if fabric is None:
            return
        rank = self._pick_healthy_rank()
        if rank is None:
            return
        machine_id = self.cluster.machine(rank).machine_id
        if machine_id in self._degraded_ids or not fabric.has_machine(machine_id):
            return
        original = fabric.egress(machine_id).capacity
        fabric.set_bandwidth(machine_id, original * self.factor)
        self._degraded_ids.add(machine_id)
        self._record(
            "bandwidth", rank=rank, factor=self.factor, duration=self.duration
        )

        def restore() -> None:
            self._degraded_ids.discard(machine_id)
            # Skip if the machine was replaced meanwhile: its id is gone
            # from the fabric and the replacement attached at full rate.
            if fabric.has_machine(machine_id):
                fabric.set_bandwidth(machine_id, original)

        self.sim.call_after(self.duration, restore)


class StragglerInjector(_DegradationInjector):
    """Transient slow machine: iterations stretch by ``factor``.

    Training is synchronous, so one slow machine sets the whole
    cluster's pace; the kernel models that with a single
    ``iteration_scale`` multiplier.  One straggler window is active at a
    time — arrivals during an open window are dropped (a second slow
    machine does not slow the collective further in this coarse model).
    """

    stream_name = "chaos-straggler"

    def __init__(
        self,
        system: SimulatedTrainingSystem,
        *,
        events_per_day: float,
        factor: float = 1.5,
        duration: float = 1800.0,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if factor <= 1.0:
            raise ValueError(f"straggler factor must be > 1, got {factor}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.factor = factor
        self.duration = duration
        super().__init__(
            system, events_per_day=events_per_day, rng=rng, horizon=horizon
        )

    def _strike(self) -> None:
        self._interrupt_macro_ticks()
        if self.system.iteration_scale != 1.0:
            return  # a straggler window is already open
        rank = self._pick_healthy_rank()
        if rank is None:
            return
        self.system.iteration_scale = self.factor
        self._record(
            "straggler", rank=rank, factor=self.factor, duration=self.duration
        )

        def restore() -> None:
            self.system.iteration_scale = 1.0

        self.sim.call_after(self.duration, restore)


class ReplicaCorruptionInjector(_DegradationInjector):
    """CPU-memory checkpoint replica corruption without a machine failure.

    Each arrival picks a healthy victim rank and silently drops
    checkpoint replicas of its shard (``scope="local"``: only the
    victim's own local replica; ``scope="set"``: every replica in the
    victim's placement set).  The machines stay healthy, so nothing is
    detected — per-iteration commits repair the slots at the next
    boundary, which is itself worth exercising.  With
    ``couple_failure=True`` the strike also delivers an immediate
    software failure on the victim, so recovery plans *while the damage
    persists*: the victim's local replica is gone, and the planner must
    fall back to persistent storage (Section 6) even though a naive
    placement-level view says CPU recovery is possible.  Policies
    without CPU-memory stores no-op.
    """

    stream_name = "chaos-corruption"

    def __init__(
        self,
        system: SimulatedTrainingSystem,
        *,
        events_per_day: float,
        scope: str = "local",
        couple_failure: bool = True,
        rng: Optional[RandomStreams] = None,
        horizon: Optional[float] = None,
    ):
        if scope not in ("local", "set"):
            raise ValueError(f"scope must be local|set, got {scope!r}")
        self.scope = scope
        self.couple_failure = couple_failure
        #: software failures this injector coupled to corruptions.
        self.failures: List[FailureEvent] = []
        super().__init__(
            system, events_per_day=events_per_day, rng=rng, horizon=horizon
        )

    def _corrupt(self, victim: int) -> List[int]:
        """Drop replicas of ``victim``'s shard; returns the storers hit."""
        policy = self.system.policy
        stores = getattr(policy, "stores", None)
        if stores is None:
            return []
        placement = getattr(policy, "placement", None)
        if self.scope == "set" and placement is not None:
            storers = sorted(placement.storers_of(victim))
        else:
            storers = [victim]
        hit: List[int] = []
        for storer in storers:
            store = stores.get(storer)
            if store is None or not store.valid:
                continue
            if victim not in store.hosted_ranks():
                continue
            store.corrupt_shard(victim)
            hit.append(storer)
        return hit

    def _strike(self) -> None:
        self._interrupt_macro_ticks()
        if getattr(self.system.policy, "stores", None) is None:
            return
        victim = self._pick_healthy_rank()
        if victim is None:
            return
        hit = self._corrupt(victim)
        if not hit:
            return
        self._record(
            "corruption", rank=victim, scope=self.scope, storers=hit,
            coupled_failure=self.couple_failure,
        )
        if self.couple_failure and self.cluster.machine(victim).is_healthy:
            deliver(
                self.cluster, self.handler, self.failures,
                self.sim.now, FailureType.SOFTWARE, [victim],
            )


#: scenario degradation kind -> injector class
#: (:data:`repro.experiments.scenario.DEGRADATION_KINDS`).
DEGRADERS: Dict[str, Type[_DegradationInjector]] = {
    "bandwidth": BandwidthDegradationInjector,
    "corruption": ReplicaCorruptionInjector,
    "straggler": StragglerInjector,
}

"""The simulation kernel: one event loop, pluggable checkpoint policies.

Historically :class:`repro.core.system.GeminiSystem` and
:class:`repro.baselines.system.BaselineSystem` each hand-rolled the same
cluster-level event loop (iteration ticks, failure delivery, machine
replacement, recovery accounting).  This module extracts that loop into
:class:`SimulatedTrainingSystem` and turns checkpointing behavior into a
:class:`CheckpointPolicy` strategy, so a new policy (tiered storage,
adaptive cadence, ...) is one class — not a third copy of the loop.

Responsibilities
----------------
The **kernel** owns everything every policy shares:

- the simulator, clock-bound observability, deterministic RNG streams;
- the cluster, cloud operator (replacement/standby), persistent store;
- the training controller (iteration ticks, abort-on-failure, resume);
- failure intake (trace/obs bookkeeping, training abort), detection
  (:mod:`repro.core.agents`: the Section 3.2 agents or a fixed delay)
  and the recovery process lifecycle (:meth:`begin_recovery`);
- the persistent-checkpoint tick loop (when the policy wants one);
- :class:`SystemResult` assembly and end-of-run metric gauges.

:meth:`CheckpointPolicy.recover` is the one recovery loop (Section 6)
every policy runs.  The **policy** owns what differs between
checkpointing strategies: which substrate it needs (CPU-memory stores
and fabric for GEMINI — nothing for the remote-storage baselines), what
happens at each iteration boundary, how a persistent tick proceeds, how
a recovery is planned, and the recovery steps that differ (the loop's
hooks).

Fidelity split (see DESIGN.md): iteration *interference* is simulated at
chunk granularity by :mod:`repro.core.interleave` on a representative
machine; the kernel runs the whole cluster at *iteration* granularity so
week-long, many-machine failure scenarios stay tractable.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import (
    TYPE_CHECKING,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cloud.operator import CloudOperator
from repro.cluster.catalog import ClusterSpec
from repro.cluster.cluster import Cluster
from repro.cluster.instances import InstanceType
from repro.cluster.machine import MachineState
from repro.core.agents import DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_LEASE_TTL
from repro.core.agents import DetectedFailure, FailureDetector
from repro.core.recovery import (
    RecoveryCostModel,
    RecoveryPlan,
    RecoveryRecord,
    recovery_source,
)
from repro.failures.types import FailureEvent, FailureType
from repro.obs import NULL_OBSERVABILITY, Observability
from repro.sim import Event, RandomStreams, Simulator
from repro.storage.persistent import PersistentStore
from repro.trace import TraceKind, TraceLog
from repro.training.models import ModelConfig
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan, build_iteration_plan
from repro.units import gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.policies import PolicyTimings
    from repro.storage.ssd import SSDStore


@dataclass
class SystemResult:
    """Outcome of a :meth:`SimulatedTrainingSystem.run`."""

    elapsed: float
    final_iteration: int
    iteration_time: float
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    persistent_checkpoints: int = 0

    @property
    def productive_time(self) -> float:
        return self.final_iteration * self.iteration_time

    @property
    def effective_ratio(self) -> float:
        """Fraction of wall-clock that became durable training progress."""
        if self.elapsed <= 0:
            return 1.0
        return min(1.0, self.productive_time / self.elapsed)


#: hard cap on iterations coalesced into one macro window, so boundary
#: lists stay small even for policies that allow unbounded batching.
_MACRO_WINDOW_CAP = 4096


class _MacroWindow:
    """One batch of analytically-advanced iterations (a *macro tick*).

    ``boundaries[i]`` is the completion time of iteration ``first + i``,
    computed by repeated addition of the scaled iteration time — the
    bit-identical float sequence the per-iteration timeouts would have
    produced.  For a policy with a ``gradient_phase_fraction``,
    ``gradients[i]`` is that iteration's gradient point, built in the same
    chain as :meth:`SimulatedTrainingSystem._split_iteration`'s two
    timeouts; otherwise ``gradients`` is ``None``.  Both are applied
    lazily by :meth:`SimulatedTrainingSystem.settle_iterations`:
    ``applied`` counts the boundaries already passed and ``replayed`` the
    hook points (gradient points, else boundaries) already replayed
    through ``fast_forward``.  ``token`` invalidates an in-flight wake
    callback when the window is truncated or closed.
    """

    __slots__ = (
        "first", "boundaries", "gradients", "applied", "replayed", "done", "token",
    )

    def __init__(
        self,
        first: int,
        boundaries: List[float],
        gradients: Optional[List[float]],
        done: Event,
    ):
        self.first = first
        self.boundaries = boundaries
        self.gradients = gradients
        self.applied = 0
        self.replayed = 0
        self.done = done
        self.token = 0


def _boundary_chain(
    now: float, step: float, count: int, fraction: Optional[float]
) -> Tuple[List[float], Optional[List[float]]]:
    """``count`` iteration ends from ``now``, and their gradient points.

    The same left fold of float additions as the per-iteration timeouts
    (``t = t + step``; with a gradient ``fraction``, ``g = t + head``
    then ``t = g + tail``, the split of ``_split_iteration``), folded by
    ``accumulate`` in C: ``now + k * step`` is not the same float.
    Without a ``fraction`` the gradient points are ``None``.
    """
    if fraction is None:
        boundaries = list(accumulate(repeat(step, count), initial=now))
        del boundaries[0]
        return boundaries, None
    head = step * fraction
    halves = chain.from_iterable(repeat((head, step - head), count))
    points = list(accumulate(halves, initial=now))
    return points[2::2], points[1::2]


def _passed(times: List[float], start: int, now: float, strict: bool) -> int:
    """Index past the last of ``times[start:]`` before ``now`` (``<=`` when
    not ``strict``)."""
    end = start
    if strict:
        while end < len(times) and times[end] < now:
            end += 1
    else:
        while end < len(times) and times[end] <= now:
            end += 1
    return end


class KernelListener:
    """Passive observer of kernel lifecycle events.

    Listeners are notified synchronously when a failure is delivered to
    the system and when a recovery's record is finalized.  They must be
    **read-only**: a listener never schedules simulator events, mutates
    cluster/store/job state, or draws randomness — so an attached
    listener changes no simulation bytes (the same discipline the
    observability layer follows).  The chaos subsystem's recovery
    invariant auditor is the canonical implementation.
    """

    def on_failure_injected(self, event: FailureEvent) -> None:
        """A failure event was delivered via ``inject_failure``."""

    def on_recovery_complete(self, record: RecoveryRecord) -> None:
        """A recovery finished; job state is already rolled back."""


class CheckpointPolicy(abc.ABC):
    """Strategy interface for checkpoint/recovery behavior.

    A policy is bound to exactly one kernel (:meth:`bind`), then driven
    through the hooks below.  Hook order per run:

    1. :meth:`configure` — derive timings/placement from the workload;
    2. :meth:`build` — create policy substrate (stores, fabric);
    3. :meth:`on_start` — establish the initial durable state;
    4. per completed iteration: :meth:`on_iteration` (a generator — it
       may yield simulator events, e.g. a torch.save stall);
    5. per persistent tick (only when :attr:`persistent_interval` is not
       ``None``): :meth:`on_persistent_tick`;
    6. per failure: :meth:`on_failure` (before the training abort),
       :meth:`after_failure` (after it);
    7. per detection: :meth:`recover`, the shared recovery loop, which
       consults :meth:`plan_recovery` and the recovery hooks;
    8. :meth:`finalize` — end-of-run metric export.

    Policies must never mutate simulator state outside these hooks, and
    observability recording must stay side-effect-free so results are
    bit-identical with obs on or off.
    """

    #: registry / display name of the policy.
    name: str = "policy"

    #: seconds between kernel-driven persistent ticks, or ``None`` when
    #: the policy manages persistence itself (or not at all).
    persistent_interval: Optional[float] = None

    #: when not ``None``, the fraction of each iteration (strictly inside
    #: ``(0, 1)``) at which the backward pass and gradient all-reduce
    #: complete; the kernel then splits the per-iteration timeout at that
    #: point and runs :meth:`on_gradient_phase` there.  ``None`` (the
    #: default) keeps the single-timeout float sequence bit-identical for
    #: existing policies.  Such a policy may still coalesce: a macro
    #: window carries each iteration's gradient point next to its end and
    #: replays the gradient points through :meth:`fast_forward`.
    gradient_phase_fraction: Optional[float] = None

    #: the kernel's detector for this policy: the Section 3.2 agent plane
    #: with these timings, or (False) ``cost_model.detection_delay``.
    use_agents: bool = False
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    lease_ttl: float = DEFAULT_LEASE_TTL

    kernel: "SimulatedTrainingSystem"

    def bind(self, kernel: "SimulatedTrainingSystem") -> None:
        if getattr(self, "kernel", None) is not None:
            raise RuntimeError(
                f"policy {self.name!r} is already bound to a kernel; "
                "create a fresh policy instance per system"
            )
        self.kernel = kernel
        self.configure()

    def configure(self) -> None:
        """Derive workload-dependent parameters (timings, placement)."""

    def build(self) -> None:
        """Create the policy's substrate (stores, fabric...)."""

    def on_start(self) -> None:
        """Establish the initial durable state (e.g. commit iteration 0)."""

    @abc.abstractmethod
    def on_iteration(self, finished: int) -> Iterator[Event]:
        """React to iteration ``finished`` completing (generator)."""

    def coalesce_iterations(self, start: int) -> int:
        """How many iterations from ``start`` may run as one macro tick.

        Return 0 (the default) to keep per-iteration stepping.  A policy
        may only return ``n > 0`` when, for every iteration ``f`` in
        ``[start, start + n - 1]``, its :meth:`on_iteration` hook would
        (a) yield no simulator events and (b) have effects it can replay
        exactly in :meth:`fast_forward`.  The kernel re-asks at every
        window boundary, and any failure, degradation, or
        ``iteration_scale`` change closes or truncates the open window —
        so returning a large number is safe whenever the two conditions
        hold on the failure-free path.  When :attr:`gradient_phase_fraction`
        is set, the same two conditions apply to :meth:`on_gradient_phase`
        instead, and :meth:`on_iteration` must have no effects at all.
        """
        return 0

    def fast_forward(
        self,
        first: int,
        last: int,
        boundary_times: Sequence[float],
        assume_healthy: Tuple[int, ...] = (),
    ) -> None:
        """Replay ``on_iteration`` effects for ``first..last`` analytically.

        ``boundary_times[i]`` is the completion time of ``first + i`` —
        the exact floats the per-iteration timeouts would have used; any
        recorded trace/metric timestamps must use them, not ``sim.now``.
        When :attr:`gradient_phase_fraction` is set, ``boundary_times``
        are the iterations' gradient points instead, and this replays
        :meth:`on_gradient_phase`; :meth:`on_iteration` must then be
        effect-free, since nothing replays it.
        ``assume_healthy`` lists ranks whose machines must be treated as
        healthy even though they are already marked down: failure
        injectors apply cluster damage *before* handing the event to the
        kernel, and the boundaries being settled all predate the failure.
        Only required when :meth:`coalesce_iterations` can return > 0.

        The replay need not be one call per iteration, only end in the
        same state with the same records: a policy whose commits are
        last-write-wins may record the non-final commits as one trace
        run (:meth:`repro.trace.TraceLog.record_run`), with their metric
        effects in order, and let only the final commit write its stores.
        """
        raise NotImplementedError(
            f"policy {self.name!r} coalesces iterations but does not "
            "implement fast_forward()"
        )

    def on_gradient_phase(self, iteration: int) -> Iterator[Event]:
        """Mid-iteration hook at the gradient-phase boundary (generator).

        Runs only when :attr:`gradient_phase_fraction` is set: inside
        iteration ``iteration`` (the one currently in flight), after the
        backward pass and gradient synchronization have finished but
        before the iteration completes.  Policies that replicate state on
        the gradient traffic (Checkmate-style) commit here, overlapping
        the replication with the comm window instead of waiting for the
        iteration boundary.  Yielded events must resolve before the
        iteration's remaining ``1 - fraction`` tail would end; a failure
        aborts the in-flight iteration exactly like the per-iteration
        timeout path.
        """
        return iter(())

    def on_persistent_tick(self) -> Iterator[Event]:
        """One persistent-tier checkpoint (generator)."""
        return iter(())

    def on_failure(self, event: FailureEvent) -> None:
        """Failure bookkeeping applied *before* the training abort."""

    def after_failure(self, event: FailureEvent) -> None:
        """Failure bookkeeping applied *after* the training abort."""

    @abc.abstractmethod
    def plan_recovery(self, failure_type, failed_ranks) -> RecoveryPlan:
        """Decide every rank's retrieval source and rollback iteration."""

    def recover(self, detected: DetectedFailure) -> Iterator[Event]:
        """The recovery loop (Section 6), one for every policy (generator).

        Each pass recovers the ranks down when it starts:

        1. the down set: hardware-failed (or replacing) ranks from
           ``Cluster.failed_ranks()``, process-down ones from
           ``unhealthy_ranks()``; an empty set ends the loop;
        2. the pass is ``HARDWARE`` if any machine failed, else
           ``SOFTWARE``; its failure time is ``detected.failure_time``
           when the detector carries one, else one ``detection_delay``
           before ``detected.detected_at``; trace DETECTION;
        3. hardware only: replace the failed machines in parallel, trace
           REPLACEMENT, and :meth:`_provision` each one still healthy;
        4. :meth:`plan_recovery` against the post-replacement state;
        5. CPU-memory plans only: :meth:`_serialize_replicas`; then trace
           SERIALIZATION;
        6. :meth:`_execute_retrievals`, trace RETRIEVAL; restart the
           pass's process-down ranks and warm up;
        7. :meth:`_reconstitute_after`, roll the job back to the plan's
           iteration (trace ROLLBACK), ``kernel.record_recovery``, trace
           RESUME;
        8. ``kernel.redetect()`` for failures that landed during the pass:
           ``None`` ends the loop, anything else starts the next pass.

        A rank that fails again after its pass took the down set is left
        down, so the next pass sees it.  No checkpoint publishes while the
        loop runs (the kernel's recovery flag gates uploads), so the plan
        reads the state the pass rolls back to.
        """
        kernel = self.kernel
        cost = kernel.cost_model
        cluster = kernel.cluster
        while True:
            down = cluster.unhealthy_ranks()
            if not down:
                break
            failed_hw = cluster.failed_ranks()
            failed_sw = [
                rank
                for rank in down
                if cluster.machine(rank).state == MachineState.PROCESS_DOWN
            ]
            failure_type = FailureType.HARDWARE if failed_hw else FailureType.SOFTWARE
            failure_time = detected.failure_time
            if failure_time is None:
                failure_time = detected.detected_at - cost.detection_delay
            record = RecoveryRecord(
                failure_time=failure_time,
                failure_type=failure_type,
                failed_ranks=down,
                detected_at=detected.detected_at,
            )
            kernel.trace.record(
                kernel.sim.now,
                TraceKind.DETECTION,
                ranks=down,
                failure_type=failure_type.value,
            )

            if failed_hw:
                yield kernel.replace_hardware(failed_hw)
                record.replacement_done_at = kernel.sim.now
                kernel.trace.record(
                    kernel.sim.now, TraceKind.REPLACEMENT, ranks=failed_hw
                )
                for rank in failed_hw:
                    # A machine that failed *again* while the barrier
                    # drained the other ranks is replaced by the next pass.
                    if cluster.machine(rank).is_healthy:
                        self._provision(rank)

            plan = self.plan_recovery(failure_type, down)
            record.rollback_iteration = plan.rollback_iteration
            record.from_cpu_memory = plan.from_cpu_memory
            record.source = recovery_source(plan)

            if plan.from_cpu_memory:
                yield from self._serialize_replicas()
            record.serialization_done_at = kernel.sim.now
            kernel.trace.record(kernel.sim.now, TraceKind.SERIALIZATION)

            yield from self._execute_retrievals(plan, cost)
            record.retrieval_done_at = kernel.sim.now
            kernel.trace.record(
                kernel.sim.now, TraceKind.RETRIEVAL, source=record.source.value
            )

            kernel.restart_down_processes(failed_sw)
            yield kernel.sim.timeout(cost.restart_warmup)
            record.resumed_at = kernel.sim.now

            # The rollback lands before record_recovery, so listeners see
            # committed/current already reflecting the recovery.
            self._reconstitute_after(plan)
            if plan.rollback_iteration is not None:
                kernel.committed_iteration = plan.rollback_iteration
                kernel.current_iteration = plan.rollback_iteration + 1
                kernel.trace.record(
                    kernel.sim.now,
                    TraceKind.ROLLBACK,
                    iteration=plan.rollback_iteration,
                    from_cpu_memory=plan.from_cpu_memory,
                )
            kernel.record_recovery(record)
            kernel.emit_recovery_telemetry(record)
            kernel.trace.record(
                kernel.sim.now,
                TraceKind.RESUME,
                overhead=round(record.total_overhead, 3),
            )
            detected = yield from kernel.redetect()
            if detected is None:
                break

    def _provision(self, rank: int) -> None:
        """Recovery hook: ready the healthy replacement machine now holding
        ``rank`` (GEMINI attaches its NIC and builds its store, as it does
        for every machine at build)."""

    def _serialize_replicas(self) -> Iterator[Event]:
        """Recovery hook (generator), run for CPU-memory plans only: make
        the surviving replicas loadable by the restarted processes."""
        return iter(())

    def _execute_retrievals(
        self, plan: RecoveryPlan, cost: RecoveryCostModel
    ) -> Iterator[Event]:
        """Recovery hook (generator): fetch every rank's shard as ``plan``
        says.  The default reads the whole model back through the
        persistent pipe, plus each machine's torch.load()."""
        kernel = self.kernel
        yield kernel.sim.timeout(
            cost.persistent_retrieval_time(
                kernel.spec, kernel.persistent.aggregate_bandwidth
            )
        )

    def _reconstitute_after(self, plan: RecoveryPlan) -> None:
        """Recovery hook: bring the policy's own checkpoint state to
        ``plan.rollback_iteration`` just before the job rolls back."""

    @abc.abstractmethod
    def timings(
        self,
        spec: Optional[ShardingSpec] = None,
        plan: Optional[IterationPlan] = None,
    ) -> "PolicyTimings":
        """Analytic timing profile (Equation 1 inputs) for a workload.

        Bound policies default ``spec``/``plan`` to the kernel's; unbound
        policies (registry/figure use) require both arguments.
        """

    def expected_loss_per_failure(
        self,
        spec: Optional[ShardingSpec] = None,
        plan: Optional[IterationPlan] = None,
        cost: Optional[RecoveryCostModel] = None,
        replacement_delay: float = 0.0,
    ) -> float:
        """Expected wall-clock seconds lost per failure (Equation 1).

        Lost progress (half a checkpoint interval plus the in-flight
        checkpoint) plus recovery overhead (detection + replacement +
        retrieval + warm-up).  The default models a policy whose recovery
        retrieves the whole model at :attr:`PolicyTimings.retrieval_time`;
        policies with cheaper paths (GEMINI's CPU-memory tier) override.
        """
        spec, plan = self._workload(spec, plan)
        if cost is None:
            kernel = getattr(self, "kernel", None)
            cost = kernel.cost_model if kernel is not None else RecoveryCostModel()
        timings = self.timings(spec, plan)
        lost_progress = timings.checkpoint_time + timings.checkpoint_interval / 2
        return (
            lost_progress
            + cost.detection_delay
            + replacement_delay
            + timings.retrieval_time
            + cost.restart_warmup
        )

    def finalize(self, result: SystemResult) -> None:
        """End-of-run hook (export policy-specific metrics)."""

    def _workload(self, spec, plan):
        """Resolve (spec, plan) for :meth:`timings`."""
        if spec is None or plan is None:
            kernel = getattr(self, "kernel", None)
            if kernel is None:
                raise ValueError(
                    "unbound policy: timings() needs explicit spec and plan"
                )
            spec = spec or kernel.spec
            plan = plan or kernel.plan
        return spec, plan


class SimulatedTrainingSystem:
    """A training job on a simulated cluster, under one checkpoint policy.

    The kernel is policy-agnostic: it drives iteration ticks, delivers
    failures, runs the recovery-process lifecycle, and accounts results.
    ``GeminiSystem`` and ``BaselineSystem`` are thin facades over this
    class; new policies plug in via :mod:`repro.experiments`.
    """

    def __init__(
        self,
        model: ModelConfig,
        instance: InstanceType,
        num_machines: int,
        policy: CheckpointPolicy,
        *,
        seed: int = 0,
        num_standby: int = 0,
        persistent_bandwidth: float = gbps(20),
        cost_model: Optional[RecoveryCostModel] = None,
        plan: Optional[IterationPlan] = None,
        obs: Optional[Observability] = None,
        sanitize: bool = False,
        cluster_spec: Optional["ClusterSpec"] = None,
        macro_ticks: bool = True,
    ):
        if cluster_spec is not None and num_machines != cluster_spec.num_machines:
            raise ValueError(
                f"num_machines {num_machines} disagrees with cluster_spec "
                f"{cluster_spec.name!r} ({cluster_spec.num_machines} machines)"
            )
        self.model = model
        self.instance = instance
        #: optional catalog spec: heterogeneous shapes + fabric topology.
        self.cluster_spec = cluster_spec
        self.policy = policy
        self.seed = seed
        self.spec = ShardingSpec(model, num_machines, instance.num_gpus)
        self.plan = plan or build_iteration_plan(model, instance, num_machines)
        self.iteration_time = self.plan.iteration_time
        self.cost_model = cost_model or RecoveryCostModel()

        #: observability bundle (no-op unless one is passed in); recording
        #: never schedules simulator events, so results are identical with
        #: observability on or off.
        self.obs = obs if obs is not None else NULL_OBSERVABILITY
        #: ``sanitize=True`` arms the runtime determinism guard: ambient
        #: clock/RNG reads raise DeterminismViolation while the event
        #: loop steps (see :mod:`repro.sim.sanitize`).
        self.sim = Simulator(
            obs=self.obs if self.obs.enabled else None,
            sanitize=sanitize,
        )
        self.obs.bind_clock(lambda: self.sim.now)
        self.rng = RandomStreams(seed)
        if cluster_spec is not None:
            self.cluster = Cluster(spec=cluster_spec)
        else:
            self.cluster = Cluster(num_machines, instance)
        self.operator = CloudOperator(
            self.sim, self.cluster, rng=self.rng, num_standby=num_standby
        )
        self.persistent = PersistentStore(
            num_machines,
            aggregate_bandwidth=persistent_bandwidth,
            obs=self.obs,
        )

        #: structured event log of everything that happens
        self.trace = TraceLog()

        # Job state.
        self.committed_iteration = 0
        self.current_iteration = 1
        self._last_commit_at: Optional[float] = None
        self._training_abort: Optional[Event] = None
        self._recovery_active = False
        self._recovery: Optional[Generator[Event, object, None]] = None
        self._recovery_done: Optional[Event] = None
        self.recoveries: List[RecoveryRecord] = []
        self.persistent_checkpoints = 0
        self._stopped = False
        self._listeners: List[KernelListener] = []
        #: multiplier on the iteration time (1.0 = nominal); the chaos
        #: straggler injector raises it transiently.  Multiplying by the
        #: default 1.0 is bit-exact, so an unscaled run is byte-identical
        #: to one predating this knob.  Exposed as a property: assigning
        #: a new scale truncates any open macro window so already-issued
        #: boundary times keep the scale they were computed under.
        self._iteration_scale = 1.0
        #: when False, the training controller always steps one iteration
        #: per event even if the policy offers to coalesce (the reference
        #: path the macro-tick property suite compares against).
        self.macro_ticks = bool(macro_ticks)
        self._macro_window: Optional[_MacroWindow] = None
        self._settling = False

        # Policy substrate, then the initial durable state: iteration 0
        # exists everywhere (persistent tier + whatever the policy hosts).
        policy.bind(self)
        policy.build()
        #: detects failures and hands them to ``policy.recover``.
        self.detector = self._detector()
        for rank in range(num_machines):
            self.persistent.put_shard(rank, 0)
        policy.on_start()

        self.sim.process(self._training_controller(), name="job-controller")
        if policy.persistent_interval is not None:
            self.sim.process(self._persistent_loop(), name="persistent-ckpt")

    def _detector(self) -> FailureDetector:
        """The detector the policy asks for (a subclass may build another)."""
        p = self.policy
        return FailureDetector(self, p.use_agents, p.heartbeat_interval, p.lease_ttl)

    # ----------------------------------------------------------------- listeners

    def add_listener(self, listener: KernelListener) -> None:
        """Attach a read-only :class:`KernelListener` (e.g. an auditor)."""
        self._listeners.append(listener)

    @property
    def recovery_active(self) -> bool:
        """True while the policy's recovery process is running, and after
        :meth:`run` if the horizon cut one off."""
        return self._recovery_active

    # --------------------------------------------------------------- macro ticks

    @property
    def iteration_scale(self) -> float:
        return self._iteration_scale

    @iteration_scale.setter
    def iteration_scale(self, value: float) -> None:
        if value == self._iteration_scale:
            return
        # Boundaries already issued keep the scale they were computed
        # under (they model iterations already in flight); only the
        # window's tail is discarded, so the in-flight boundary still
        # completes at its original time exactly like the per-iteration
        # timeout it stands in for.
        self.settle_iterations(strict=True)
        self.macro_interrupt()
        self._iteration_scale = value

    def settle_iterations(
        self,
        *,
        strict: bool = True,
        assume_healthy: Tuple[int, ...] = (),
    ) -> None:
        """Apply macro-window boundaries the clock has passed.

        Macro windows are settled *lazily*: iteration completions inside
        an open window take effect the first time anything looks at job
        state — failure intake, persistent ticks, degradation strikes,
        end of run.  ``strict=True`` applies boundaries strictly before
        ``now`` (an observer at exactly a boundary time sees the
        pre-completion state, matching the per-iteration seq order where
        the observer's earlier-scheduled event pops first);
        ``strict=False`` also applies a boundary exactly at ``now`` (the
        window-end wake and the run-end clamp, where the per-iteration
        timeout would have fired).  Gradient points follow the same rule:
        the passed ones are replayed through ``fast_forward``, while
        ``current_iteration`` follows the boundaries.
        """
        window = self._macro_window
        if window is None or self._settling:
            return
        now = self.sim.now
        end = _passed(window.boundaries, window.applied, now, strict)
        points = window.gradients
        if points is None:
            points, hook_end = window.boundaries, end
        else:
            hook_end = _passed(points, window.replayed, now, strict)
        window.applied = end
        self.current_iteration = window.first + end
        if hook_end == window.replayed:
            return
        first = window.first + window.replayed
        last = window.first + hook_end - 1
        batch = points[window.replayed:hook_end]
        window.replayed = hook_end
        self._settling = True
        try:
            self.policy.fast_forward(
                first, last, batch, assume_healthy=assume_healthy
            )
        finally:
            self._settling = False

    def macro_interrupt(self) -> None:
        """Truncate an open macro window to its in-flight boundary.

        Degradations make further coalescing illegal: the window keeps
        only the one boundary already in flight (its completion time is
        unchanged — exactly the pending per-iteration timeout) and that
        iteration's gradient point, and the controller re-asks the policy
        afterwards.
        """
        window = self._macro_window
        if window is None:
            return
        keep = window.applied + 1
        if keep < len(window.boundaries):
            del window.boundaries[keep:]
            if window.gradients is not None:
                del window.gradients[keep:]
            window.token += 1
            self._schedule_macro_wake(window)

    def _schedule_macro_wake(self, window: _MacroWindow) -> None:
        sim = self.sim
        last = window.boundaries[-1]
        delay = last - sim.now
        # now + (last - now) can land an ulp short of the boundary; bump
        # the delay until the wake time covers it, so the window-end
        # settle (<= now) applies every boundary.
        while sim.now + delay < last:
            delay = math.nextafter(delay, math.inf)
        token = window.token
        sim.call_after(delay, lambda: self._macro_wake(window, token))

    def _macro_wake(self, window: _MacroWindow, token: int) -> None:
        if self._macro_window is not window or window.token != token:
            return
        self.settle_iterations(strict=False)
        self._macro_window = None
        if not window.done.triggered:
            window.done.succeed()

    def _close_macro_window(self) -> None:
        """Discard an open window's unapplied tail (failure intake path).

        The stale wake keeps the window object alive until the old end
        time, so the tail's boundary and gradient floats are released here.
        """
        window = self._macro_window
        if window is not None:
            window.token += 1
            del window.boundaries[window.applied:]
            if window.gradients is not None:
                del window.gradients[window.replayed:]
            self._macro_window = None

    # ------------------------------------------------------------- failure intake

    def inject_failure(self, event: FailureEvent) -> None:
        """Handler for failure injectors: training stops immediately; the
        kernel's detector (agents' lease expiry, or a fixed delay) drives
        *detection* afterwards."""
        # Iterations that completed before this failure must be on the
        # books before anything reads job state (the failed machines
        # were marked down by the injector *before* this call, hence
        # assume_healthy); the unapplied tail is lost, exactly like the
        # in-flight per-iteration timeout an abort discards.
        self.settle_iterations(strict=True, assume_healthy=tuple(event.ranks))
        self._close_macro_window()
        self.trace.record(
            self.sim.now,
            TraceKind.FAILURE,
            failure_type=event.failure_type.value,
            ranks=list(event.ranks),
        )
        if self.obs.enabled:
            self.obs.metrics.counter(
                "repro_failures_injected_total",
                help="failure events delivered to the system",
                labels={"failure_type": event.failure_type.value},
            ).inc()
            self.obs.tracer.instant(
                "failure.injected",
                track="recovery",
                failure_type=event.failure_type.value,
                ranks=list(event.ranks),
            )
        self.policy.on_failure(event)
        if self._training_abort is not None and not self._training_abort._resolved:
            self._training_abort.succeed(event)
        self.policy.after_failure(event)
        self.detector.on_failure(event)
        for listener in self._listeners:
            listener.on_failure_injected(event)

    def begin_recovery(self, detected: DetectedFailure) -> None:
        """The detector's call: spawn ``policy.recover(detected)`` unless a
        recovery is running."""
        if self._recovery_active or self._stopped:
            return
        self._recovery_active = True
        if self._recovery_done is None or self._recovery_done.triggered:
            self._recovery_done = self.sim.event(name="recovery-done")
        self._recovery = self._run_recovery(detected)
        self.sim.process(self._recovery, name="recovery")

    def redetect(self):
        """Failures that landed in a recovery pass (generator): the ranks down
        now, after a fixed ``detection_delay`` (in agent mode too), or ``None``."""
        missing = self.cluster.unhealthy_ranks()
        if not missing:
            return None
        failed_at = self.sim.now
        yield self.sim.timeout(self.cost_model.detection_delay)
        return DetectedFailure(self.sim.now, missing, failure_time=failed_at)

    def record_recovery(self, record: RecoveryRecord) -> None:
        """Close a recovery pass: respawn agents, append ``record``, notify.

        Policies call this at the moment the record is complete and the
        job state has been rolled back, so listeners observe a consistent
        snapshot (committed/current iteration already reflect the
        recovery).  Notification is synchronous and read-only.
        """
        self.detector.after_pass(record.failed_ranks)
        self.recoveries.append(record)
        for listener in self._listeners:
            listener.on_recovery_complete(record)

    def _run_recovery(self, detected: DetectedFailure):
        # The finally block keeps the kernel recoverable even when the
        # policy's recover() dies mid-flight (e.g. an undefused
        # TransferAborted): the flag is released and waiters are woken,
        # so the next detection can start a fresh recovery instead of
        # wedging training behind a flag nobody will ever clear.  The one
        # exit that touches nothing is GeneratorExit: run() closing a
        # recovery the horizon cut off (or the garbage collector closing
        # that of a system dropped before run() returned).  It leaves the
        # flag set, since the run ended mid-recovery, and schedules no
        # wake-up, which would hand the stopped simulator a new reference
        # to the system.
        closed = False
        try:
            yield from self.policy.recover(detected)
            self.detector.mark_handled(detected.missing_ranks)
        except GeneratorExit:
            closed = True
            raise
        finally:
            if not closed:
                self._recovery_active = False
                if (
                    self._recovery_done is not None
                    and not self._recovery_done.triggered
                ):
                    self._recovery_done.succeed()

    # ------------------------------------------------------------------ training

    def _training_controller(self):
        while not self._stopped:
            if self._recovery_active:
                yield self._recovery_done
                continue
            count = 0
            if self.macro_ticks:
                count = min(
                    self.policy.coalesce_iterations(self.current_iteration),
                    _MACRO_WINDOW_CAP,
                )
            self._training_abort = self.sim.event(name="training-abort")
            abort = self._training_abort
            fraction = self.policy.gradient_phase_fraction
            if count > 1:
                # Macro tick: advance `count` iterations as one event,
                # its boundaries bit-identical to the per-iteration chain.
                boundaries, gradients = _boundary_chain(
                    self.sim.now,
                    self.iteration_time * self._iteration_scale,
                    count,
                    fraction,
                )
                window = _MacroWindow(
                    self.current_iteration,
                    boundaries,
                    gradients,
                    self.sim.event(name="macro-window"),
                )
                self._macro_window = window
                self._schedule_macro_wake(window)
                done: Event = window.done
            else:
                if fraction is None:
                    done = self.sim.timeout(self.iteration_time * self.iteration_scale)
                else:
                    done = self.sim.event(name="iteration-done")
                    self.sim.process(
                        self._split_iteration(
                            self.current_iteration, fraction, done, abort
                        ),
                        name="iteration-split",
                    )
            yield self.sim.any_of([done, abort])
            if abort.triggered:
                # Training halted; wait for detection+recovery (the
                # recovery process fires this event when done).  On the
                # macro path inject_failure already settled the completed
                # boundaries and closed the window.
                if self._recovery_done is None or self._recovery_done.triggered:
                    self._recovery_done = self.sim.event(name="recovery-done")
                yield self._recovery_done
                continue
            if count > 1:
                # The window-end wake settled every boundary and closed
                # the window; re-plan from the new current_iteration.
                continue
            # Iteration completed.
            finished = self.current_iteration
            self.current_iteration += 1
            yield from self.policy.on_iteration(finished)

    def _split_iteration(self, iteration: int, fraction: float, done, abort):
        """One iteration stepped in two halves around the gradient phase.

        Spawned per iteration when the policy sets
        ``gradient_phase_fraction``: the head timeout ends at the
        gradient-sync boundary, where ``on_gradient_phase`` runs; the
        tail covers the optimizer step.  ``abort`` is the training-abort
        event captured at spawn — once a failure has scheduled it, this
        iteration is dead and the process exits without completing
        ``done`` (the controller is already parked on recovery, and a
        fresh process re-runs the iteration afterwards).  "Scheduled", not
        "fired": a failure at exactly the gradient point queues its abort
        behind this process's timeout, and must still count as first.
        """
        step = self.iteration_time * self._iteration_scale
        head = step * fraction
        yield self.sim.timeout(head)
        if abort._resolved or self._stopped:
            return
        yield from self.policy.on_gradient_phase(iteration)
        if abort._resolved or self._stopped:
            return
        # repro: allow[RACE005] step/head fix the iteration's span at spawn
        yield self.sim.timeout(step - head)
        if abort._resolved or self._stopped or done.triggered:
            return
        done.succeed()

    # --------------------------------------------------------------- persistence

    def _persistent_loop(self):
        # Re-read the interval every round: a policy may retune it at
        # runtime (adaptive persistence), and a value cached before the
        # first yield would pin the loop to the boot-time setting.
        while not self._stopped:
            yield self.sim.timeout(self.policy.persistent_interval)
            # The tick reads committed_iteration: put completed macro
            # boundaries on the books first.
            self.settle_iterations(strict=True)
            yield from self.policy.on_persistent_tick()

    def upload_checkpoint(
        self,
        tier: Union[PersistentStore, SSDStore],
        *,
        serialize: bool = True,
        prune: bool = True,
    ):
        """Upload the committed iteration to a durable ``tier`` (generator).

        Every durable-tier writer goes through here: the persistent tick,
        the on-demand user checkpoint, the baselines' uploader and
        TierCheck's SSD loop.  The snapshot is read once, serialized from
        the CPU-memory replica (skipped with ``serialize=False`` when the
        writer already stalled training for torch.save), then written
        through ``tier.write_time``.  A checkpoint is only usable once
        every rank's shard has landed (§6), so the window is re-checked
        after the last suspension: if the job rolled back behind the
        snapshot, a recovery is running, or any machine is down, the
        serialized bytes describe a state the cluster no longer has and
        publishing them would commit a torn checkpoint.

        Returns ``(snapshot, published)``; callers record the outcome.
        """
        self.settle_iterations(strict=True)
        snapshot = self.committed_iteration
        if serialize:
            yield self.sim.timeout(
                self.cost_model.serialization.save_time(
                    self.spec.checkpoint_bytes_per_machine
                )
            )
        yield self.sim.timeout(tier.write_time(self.spec.checkpoint_bytes_total))
        if self.committed_iteration < snapshot or not self.upload_window_intact():
            return snapshot, False
        for rank in range(self.cluster.size):
            tier.put_shard(rank, snapshot)
        if prune:
            tier.prune(keep_latest=2)
        return snapshot, True

    def upload_window_intact(self) -> bool:
        """True when no recovery is running and every machine is healthy."""
        if self._recovery_active:
            return False
        return not self.cluster.unhealthy_ranks()

    def record_persistent_checkpoint(self, snapshot: int, **extra) -> None:
        """Bookkeeping after the persistent tier gained ``snapshot``."""
        self.settle_iterations(strict=True)
        self.persistent_checkpoints += 1
        self.trace.record(
            self.sim.now, TraceKind.PERSISTENT_CHECKPOINT,
            iteration=snapshot, **extra,
        )

    def record_persistent_aborted(self, snapshot: int, **extra) -> None:
        """Bookkeeping after an upload window tore and was abandoned."""
        self.settle_iterations(strict=True)
        self.trace.record(
            self.sim.now, TraceKind.PERSISTENT_ABORTED,
            iteration=snapshot, **extra,
        )

    def emit_persistent_telemetry(self, snapshot: int, started_at: float) -> None:
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        metrics.counter(
            "repro_persistent_checkpoints_total",
            help="checkpoints uploaded to the persistent tier",
        ).inc()
        metrics.counter(
            "repro_persistent_bytes_total",
            help="bytes uploaded to the persistent tier",
        ).inc(self.spec.checkpoint_bytes_total)
        self.obs.tracer.add_span(
            "checkpoint.persistent",
            started_at,
            self.sim.now,
            track="checkpoint",
            iteration=snapshot,
        )

    def request_persistent_checkpoint(self) -> Event:
        """On-demand user checkpoint to persistent storage (Section 2.3.1).

        GEMINI decouples failure-recovery checkpoints (CPU memory, managed
        by the system) from user checkpoints for transfer learning / model
        debugging (persistent storage, managed by users).  This is the
        user-facing trigger: it serializes from the CPU-memory replica
        (no training stall) and uploads through the shared persistent
        pipe.  The returned event fires with the snapshot iteration once
        the checkpoint is complete and durable — or with ``None`` when a
        failure tore the upload window and the publish was abandoned
        (callers should retry after recovery settles).
        """
        done = self.sim.event(name="user-checkpoint")

        def upload():
            started_at = self.sim.now
            snapshot, published = yield from self.upload_checkpoint(
                self.persistent, prune=False
            )
            if not published:
                self.record_persistent_aborted(snapshot, on_demand=True)
                done.succeed(None)
                return
            self.record_persistent_checkpoint(snapshot, on_demand=True)
            # repro: allow[RACE005] started_at is the span start, by design
            self.emit_persistent_telemetry(snapshot, started_at)
            done.succeed(snapshot)

        self.sim.process(upload(), name="user-checkpoint")
        return done

    # ------------------------------------------------------------------ recovery

    def replace_hardware(self, ranks: List[int]) -> Event:
        """Request parallel replacement of ``ranks``; fires when all done."""
        replacements = [self.operator.request_replacement(rank) for rank in ranks]
        return self.sim.all_of(replacements)

    def restart_down_processes(self, ranks: List[int]) -> None:
        """Restart the training process on every PROCESS_DOWN machine."""
        for rank in ranks:
            machine = self.cluster.machine(rank)
            if machine.state == MachineState.PROCESS_DOWN:
                machine.restart_process()

    def emit_recovery_telemetry(self, record: RecoveryRecord) -> None:
        """One ``recovery`` parent span plus ``recovery.<phase>`` children.

        Phase windows come from :meth:`RecoveryRecord.phase_intervals`,
        which tile ``[failure_time, resumed_at]`` exactly, so the child
        spans' durations sum to the recovery's total overhead (Figure 14).
        """
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        labels = {
            "failure_type": record.failure_type.value,
            "source": record.source.value if record.source else "none",
        }
        metrics.counter(
            "repro_recoveries_total", help="completed recoveries", labels=labels
        ).inc()
        metrics.histogram(
            "repro_recovery_overhead_seconds",
            help="failure to resumption, excluding lost progress",
        ).observe(record.total_overhead)
        parent = self.obs.tracer.add_span(
            "recovery",
            record.failure_time,
            record.resumed_at,
            track="recovery",
            failure_type=record.failure_type.value,
            ranks=list(record.failed_ranks),
        )
        for phase, (start, end) in record.phase_intervals().items():
            metrics.histogram(
                "repro_recovery_phase_seconds",
                help="per-phase recovery durations (Figure 14)",
                labels={"phase": phase},
            ).observe(end - start)
            self.obs.tracer.add_span(
                f"recovery.{phase}",
                start,
                end,
                track="recovery",
                parent_id=parent.span_id,
            )

    # ------------------------------------------------------------------- running

    def run(self, duration: float) -> SystemResult:
        """Simulate ``duration`` seconds of wall-clock training."""
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.sim.run(until=self.sim.now + duration)
        # A boundary landing exactly on the clamp time counts (its
        # per-iteration timeout would have fired inside run); the open
        # window's tail is in-flight work and is dropped.
        self.settle_iterations(strict=False)
        self._close_macro_window()
        self._stopped = True
        if self._recovery is not None:
            # Cut off a recovery still running at the horizon now rather
            # than whenever the garbage collector frees the system, so the
            # close happens at one point of every run.
            self._recovery.close()
        result = SystemResult(
            elapsed=self.sim.now,
            final_iteration=self.committed_iteration,
            iteration_time=self.iteration_time,
            recoveries=list(self.recoveries),
            persistent_checkpoints=self.persistent_checkpoints,
        )
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.gauge(
                "repro_sim_clock_seconds", help="final simulated clock"
            ).set(self.sim.now)
            metrics.gauge(
                "repro_iterations_committed",
                help="last durable training iteration",
            ).set(self.committed_iteration)
            metrics.gauge(
                "repro_cluster_healthy_machines",
                help="machines healthy at the end of the run",
            ).set(sum(1 for m in self.cluster.machines() if m.is_healthy))
            metrics.gauge(
                "repro_job_effective_ratio",
                help="productive fraction of wall-clock (SystemResult)",
            ).set(result.effective_ratio)
        self.policy.finalize(result)
        return result

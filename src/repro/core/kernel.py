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
- failure intake (trace/obs bookkeeping, training abort) and the
  recovery process lifecycle (:meth:`begin_recovery`);
- the persistent-checkpoint tick loop (when the policy wants one);
- :class:`SystemResult` assembly and end-of-run metric gauges.

The **policy** owns what differs between checkpointing strategies: which
substrate it needs (CPU-memory stores, agents, fabric for GEMINI —
nothing for the remote-storage baselines), what happens at each iteration
boundary, how a persistent tick proceeds, how failures are detected, and
how a recovery is planned and executed.

Fidelity split (see DESIGN.md): iteration *interference* is simulated at
chunk granularity by :mod:`repro.core.interleave` on a representative
machine; the kernel runs the whole cluster at *iteration* granularity so
week-long, many-machine failure scenarios stay tractable.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.cloud.operator import CloudOperator
from repro.cluster.catalog import ClusterSpec
from repro.cluster.cluster import Cluster
from repro.cluster.instances import InstanceType
from repro.cluster.machine import MachineState
from repro.core.recovery import RecoveryCostModel, RecoveryPlan, RecoveryRecord
from repro.failures.types import FailureEvent
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
    produced.  Boundaries are applied lazily by
    :meth:`SimulatedTrainingSystem.settle_iterations`; ``applied`` counts
    how many already ran.  ``token`` invalidates an in-flight wake
    callback when the window is truncated or closed.
    """

    __slots__ = ("first", "boundaries", "applied", "done", "token")

    def __init__(self, first: int, boundaries: List[float], done: Event):
        self.first = first
        self.boundaries = boundaries
        self.applied = 0
        self.done = done
        self.token = 0


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
    2. :meth:`build` — create policy substrate (stores, agents, fabric);
    3. :meth:`on_start` — establish the initial durable state;
    4. per completed iteration: :meth:`on_iteration` (a generator — it
       may yield simulator events, e.g. a torch.save stall);
    5. per persistent tick (only when :attr:`persistent_interval` is not
       ``None``): :meth:`on_persistent_tick`;
    6. per failure: :meth:`on_failure` (before the training abort),
       :meth:`after_failure` (after it — schedule detection here);
    7. per recovery: :meth:`recover`, a generator that drives the whole
       recovery and typically consults :meth:`plan_recovery`;
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
    #: existing policies.  A policy that sets this must keep
    #: :meth:`coalesce_iterations` at 0 — the mid-iteration hook is a
    #: real event a macro window would skip.
    gradient_phase_fraction: Optional[float] = None

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
        """Create the policy's substrate (stores, agents, fabric...)."""

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
        hold on the failure-free path.
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
        ``assume_healthy`` lists ranks whose machines must be treated as
        healthy even though they are already marked down: failure
        injectors apply cluster damage *before* handing the event to the
        kernel, and the boundaries being settled all predate the failure.
        Only required when :meth:`coalesce_iterations` can return > 0.
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
        """Detection scheduling applied *after* the training abort."""

    @abc.abstractmethod
    def plan_recovery(self, failure_type, failed_ranks) -> RecoveryPlan:
        """Decide every rank's retrieval source and rollback iteration."""

    @abc.abstractmethod
    def recover(self, trigger) -> Iterator[Event]:
        """Drive one full recovery (generator; kernel clears flags after)."""

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
        for rank in range(num_machines):
            self.persistent.put_shard(rank, 0)
        policy.on_start()

        self.sim.process(self._training_controller(), name="job-controller")
        if policy.persistent_interval is not None:
            self.sim.process(self._persistent_loop(), name="persistent-ckpt")

    # ----------------------------------------------------------------- listeners

    def add_listener(self, listener: KernelListener) -> None:
        """Attach a read-only :class:`KernelListener` (e.g. an auditor)."""
        self._listeners.append(listener)

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
        timeout would have fired).
        """
        window = self._macro_window
        if window is None or self._settling:
            return
        now = self.sim.now
        boundaries = window.boundaries
        end = window.applied
        if strict:
            while end < len(boundaries) and boundaries[end] < now:
                end += 1
        else:
            while end < len(boundaries) and boundaries[end] <= now:
                end += 1
        if end == window.applied:
            return
        first = window.first + window.applied
        last = window.first + end - 1
        batch = boundaries[window.applied:end]
        window.applied = end
        self.current_iteration = window.first + end
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
        unchanged — exactly the pending per-iteration timeout), and the
        controller re-asks the policy afterwards.
        """
        window = self._macro_window
        if window is None:
            return
        keep = window.applied + 1
        if keep < len(window.boundaries):
            del window.boundaries[keep:]
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
        """Discard an open window's unapplied tail (failure intake path)."""
        window = self._macro_window
        if window is not None:
            window.token += 1
            self._macro_window = None

    # ------------------------------------------------------------- failure intake

    def inject_failure(self, event: FailureEvent) -> None:
        """Handler for failure injectors: training stops immediately; the
        policy's detection model (agents' lease expiry, or a fixed delay)
        drives *detection* afterwards."""
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
        if self._training_abort is not None and not self._training_abort.triggered:
            self._training_abort.succeed(event)
        self.policy.after_failure(event)
        for listener in self._listeners:
            listener.on_failure_injected(event)

    def begin_recovery(self, trigger) -> None:
        """Spawn the policy's recovery process unless one is running.

        ``trigger`` is whatever the policy's detection model produces (a
        :class:`DetectedFailure` for agent-based detection, the raw
        :class:`FailureEvent` for inline-delay detection) and is passed
        through to :meth:`CheckpointPolicy.recover`.
        """
        if self._recovery_active or self._stopped:
            return
        self._recovery_active = True
        if self._recovery_done is None or self._recovery_done.triggered:
            self._recovery_done = self.sim.event(name="recovery-done")
        self.sim.process(self._run_recovery(trigger), name="recovery")

    def record_recovery(self, record: RecoveryRecord) -> None:
        """Append a finalized :class:`RecoveryRecord` and notify listeners.

        Policies call this at the moment the record is complete and the
        job state has been rolled back, so listeners observe a consistent
        snapshot (committed/current iteration already reflect the
        recovery).  Notification is synchronous and read-only; it
        schedules nothing.
        """
        self.recoveries.append(record)
        for listener in self._listeners:
            listener.on_recovery_complete(record)

    def _run_recovery(self, trigger):
        # The finally block keeps the kernel recoverable even when the
        # policy's recover() dies mid-flight (e.g. an undefused
        # TransferAborted): the flag is released and waiters are woken,
        # so the next detection can start a fresh recovery instead of
        # wedging training behind a flag nobody will ever clear.
        try:
            yield from self.policy.recover(trigger)
        finally:
            self._recovery_active = False
            if self._recovery_done is not None and not self._recovery_done.triggered:
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
            if count > 1:
                # Macro tick: advance `count` iterations as one event.
                # Boundary times are built by repeated addition so they
                # are bit-identical to the per-iteration timeout chain
                # (t0 + k*step is NOT, by float non-associativity).
                step = self.iteration_time * self._iteration_scale
                t = self.sim.now
                boundaries = []
                for _ in range(count):
                    t = t + step
                    boundaries.append(t)
                window = _MacroWindow(
                    self.current_iteration,
                    boundaries,
                    self.sim.event(name="macro-window"),
                )
                self._macro_window = window
                self._schedule_macro_wake(window)
                done: Event = window.done
            else:
                fraction = self.policy.gradient_phase_fraction
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
        event captured at spawn — once it fires, this iteration is dead
        and the process exits without completing ``done`` (the controller
        is already parked on recovery, and a fresh process re-runs the
        iteration afterwards).
        """
        step = self.iteration_time * self._iteration_scale
        head = step * fraction
        yield self.sim.timeout(head)
        if abort.triggered or self._stopped:
            return
        yield from self.policy.on_gradient_phase(iteration)
        if abort.triggered or self._stopped:
            return
        # repro: allow[RACE005] step/head fix the iteration's span at spawn
        yield self.sim.timeout(step - head)
        if abort.triggered or self._stopped or done.triggered:
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

    def record_persistent_checkpoint(self, snapshot: int, **extra) -> None:
        """Bookkeeping after the persistent tier gained ``snapshot``."""
        self.settle_iterations(strict=True)
        self.persistent_checkpoints += 1
        self.trace.record(
            self.sim.now, TraceKind.PERSISTENT_CHECKPOINT,
            iteration=snapshot, **extra,
        )

    def upload_window_intact(self) -> bool:
        """True when a persistent-upload window survived without damage.

        Persistent uploads serialize a snapshot, then yield for the
        transfer, then publish shards.  A failure inside that window
        invalidates the plan the upload was acting on: the serialized
        bytes may describe a cluster state the job has since rolled
        back behind, and publishing them would commit a torn
        checkpoint.  Callers re-check ``committed_iteration`` against
        their snapshot *and* this predicate after every suspension,
        before ``put_shard``.
        """
        if self._recovery_active:
            return False
        return all(m.is_healthy for m in self.cluster.machines())

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
            self.settle_iterations(strict=True)
            snapshot = self.committed_iteration
            started_at = self.sim.now
            serialization = self.cost_model.serialization
            yield self.sim.timeout(
                serialization.save_time(self.spec.checkpoint_bytes_per_machine)
            )
            transfer = (
                self.spec.checkpoint_bytes_total / self.persistent.aggregate_bandwidth
            )
            yield self.sim.timeout(transfer)
            # A failure in the upload window invalidates the snapshot:
            # abandon the publish rather than commit a torn checkpoint.
            if self.committed_iteration < snapshot or not self.upload_window_intact():
                self.record_persistent_aborted(snapshot, on_demand=True)
                done.succeed(None)
                return
            for rank in range(self.cluster.size):
                self.persistent.put_shard(rank, snapshot)
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

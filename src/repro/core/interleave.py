"""Traffic interleaving schemes and the interference experiment (Sec 5, 7.4).

The five schemes of Figure 16, all checkpointing to CPU memory every
iteration (except Baseline):

- **baseline** — no checkpointing at all.
- **blocking** — the full checkpoint is streamed at the start of each
  iteration, blocking training until it lands (Figure 4b).
- **naive** — checkpoint traffic is interleaved with one partition per
  network idle timespan, so a partition must fill a whole span; the
  required GPU buffer (largest span x bandwidth) typically exceeds the
  available GPU memory -> OOM (Figure 16's OOM bar).
- **no_pipeline** — Algorithm 2 partitions with a single 128 MB/GPU
  buffer; each chunk's network transfer must wait for the previous chunk's
  GPU-to-CPU copy (Figure 5c), halving effective checkpoint bandwidth.
- **gemini** — Algorithm 2 partitions with four 32 MB/GPU sub-buffers and
  the pipelined transport (Figure 5d).

There is also **whole** — ship the entire shard as one GPU-resident blob
(Figure 5b); always OOM for large models.

:class:`InterferenceExperiment` wires a scheme into the DES training loop
on a representative machine pair and measures iteration times, checkpoint
completion, and residual network idle time.  :class:`SchemeRuns` lets
several figures read one set of runs: each distinct warm-up profile and
each distinct measured run is simulated once per table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.instances import InstanceType
from repro.core.checkpoint import ChunkPipeline, LocalCopyScheduler
from repro.core.partition import (
    Algorithm2Config,
    PartitionPlan,
    checkpoint_partition,
)
from repro.core.profiler import IdleProfile, OnlineProfiler
from repro.network.cost import CommCostModel
from repro.network.fabric import CopyEngine, Fabric
from repro.sim import Event, Simulator
from repro.training.loop import (
    IterationRecord,
    TimelineRecorder,
    TrainingHooks,
    TrainingLoop,
)
from repro.training.models import ModelConfig
from repro.training.states import ShardingSpec
from repro.training.timeline import IterationPlan, Span, SpanKind, build_iteration_plan
from repro.units import MB

SCHEME_NAMES = ("baseline", "blocking", "naive", "no_pipeline", "gemini", "whole")

#: "each GPU usually has a few hundred MB of memory available" (Section 5.2).
DEFAULT_AVAILABLE_GPU_BUFFER_PER_GPU = 400 * MB


class CheckpointOOMError(MemoryError):
    """The scheme needs more GPU buffer than is available."""


@dataclass
class CheckpointCycleRecord:
    """One iteration's checkpoint activity."""

    iteration: int
    started_at: float
    bytes_sent: float = 0.0
    network_time: float = 0.0
    done_at: Optional[float] = None


@dataclass
class InterferenceResult:
    """What one scheme run produced."""

    scheme: str
    oom: bool
    required_buffer_bytes: float
    available_buffer_bytes: float
    iteration_times: List[float] = field(default_factory=list)
    baseline_iteration_time: float = 0.0
    idle_time_without_ckpt: float = 0.0
    checkpoint_cycles: List[CheckpointCycleRecord] = field(default_factory=list)
    profile: Optional[IdleProfile] = None

    @property
    def mean_iteration_time(self) -> float:
        if not self.iteration_times:
            raise RuntimeError(f"scheme {self.scheme!r} produced no iterations (OOM?)")
        return sum(self.iteration_times) / len(self.iteration_times)

    @property
    def overhead_fraction(self) -> float:
        """Mean iteration-time inflation over the no-checkpoint baseline."""
        return self.mean_iteration_time / self.baseline_iteration_time - 1.0

    @property
    def mean_checkpoint_network_time(self) -> float:
        """Mean per-iteration NIC seconds consumed by checkpoint traffic."""
        cycles = [c for c in self.checkpoint_cycles if c.done_at is not None]
        if not cycles:
            return 0.0
        return sum(c.network_time for c in cycles) / len(cycles)

    @property
    def idle_time_with_ckpt(self) -> float:
        """Residual idle time after checkpoint traffic (Figure 8's third bar)."""
        return max(0.0, self.idle_time_without_ckpt - self.mean_checkpoint_network_time)


# ---------------------------------------------------------------------------
# Scheme hook implementations
# ---------------------------------------------------------------------------

class _SchemeBase(TrainingHooks):
    """Shared plumbing: pipelines, the local copier, and cycle records."""

    def __init__(self, experiment: "InterferenceExperiment"):
        self.exp = experiment
        self.sim = experiment.sim
        self.cycles: List[CheckpointCycleRecord] = []
        self._outstanding: List[Event] = []
        self._network_time_mark = 0.0
        self._cycle: Optional[CheckpointCycleRecord] = None

    # -- helpers --------------------------------------------------------------

    def _begin_cycle(self, iteration: int) -> Optional[Event]:
        """Start a checkpoint cycle; returns a gate if the previous one is
        still in flight (its traffic overflowed the iteration)."""
        gate = None
        pending = [e for e in self._outstanding if not e.triggered]
        if pending:
            gate = self.sim.all_of(pending)
        self._outstanding = []
        self._cycle = CheckpointCycleRecord(iteration=iteration, started_at=self.sim.now)
        self.cycles.append(self._cycle)
        self.exp.local_copier.begin_iteration(self.exp.shard_bytes)
        self._network_time_mark = self.exp.pipeline_out.network_time
        obs = self.exp.obs
        if obs is not None and obs.enabled:
            obs.metrics.counter(
                "repro_ckpt_cycles_total", help="checkpoint cycles started"
            ).inc()
            if pending:
                # Traffic from the previous iteration spilled into this one:
                # those chunks were effectively deferred past their deadline.
                obs.metrics.counter(
                    "repro_ckpt_cycles_overflowed_total",
                    help="cycles whose traffic spilled past the iteration",
                ).inc()
        return gate

    def _send(self, sizes: List[float]) -> None:
        """Send chunks out and mirror the peer's symmetric traffic in."""
        if not sizes:
            return
        out_event = self.exp.pipeline_out.send_chunks(sizes, tag="ckpt-out")
        in_event = self.exp.pipeline_in.send_chunks(sizes, tag="ckpt-in")
        self._outstanding.extend([out_event, in_event])
        if self._cycle is not None:
            self._cycle.bytes_sent += sum(sizes)
        obs = self.exp.obs
        if obs is not None and obs.enabled:
            obs.metrics.counter(
                "repro_ckpt_chunks_scheduled_total",
                help="checkpoint chunks handed to the pipelines",
            ).inc(len(sizes))
            obs.metrics.counter(
                "repro_ckpt_chunk_bytes_total",
                help="checkpoint bytes handed to the pipelines",
            ).inc(sum(sizes))

    def _finish_cycle(self) -> None:
        self.exp.local_copier.flush()
        cycle = self._cycle
        if cycle is None:
            return
        cycle.network_time = self.exp.pipeline_out.network_time - self._network_time_mark
        pending = [e for e in self._outstanding if not e.triggered]
        if not pending:
            cycle.done_at = self.sim.now
        else:
            def close(_ev, record=cycle):
                record.done_at = self.sim.now

            self.sim.all_of(pending).callbacks.append(close)

    def on_iteration_end(self, record: IterationRecord) -> None:
        self._finish_cycle()


class BaselineScheme(TrainingHooks):
    """No checkpointing."""

    def __init__(self, experiment: "InterferenceExperiment"):
        self.cycles: List[CheckpointCycleRecord] = []


class BlockingScheme(_SchemeBase):
    """Stream the whole checkpoint at iteration start; training waits."""

    def on_iteration_start(self, iteration: int) -> Optional[Event]:
        overflow_gate = self._begin_cycle(iteration)
        chunk = self.exp.config.max_chunk_bytes
        total = self.exp.shard_bytes * (self.exp.num_replicas - 1)
        sizes: List[float] = []
        remaining = total
        while remaining > 0:
            size = min(chunk, remaining)
            sizes.append(size)
            remaining -= size
        self._send(sizes)
        gates = [e for e in self._outstanding]
        if overflow_gate is not None:
            gates.append(overflow_gate)
        return self.sim.all_of(gates)


class _SpanScheduledScheme(_SchemeBase):
    """Base for schemes that place chunks into specific idle timespans."""

    def __init__(self, experiment: "InterferenceExperiment", plan: PartitionPlan):
        super().__init__(experiment)
        self.plan = plan
        self._idle_index = 0

    def on_iteration_start(self, iteration: int) -> Optional[Event]:
        self._idle_index = 0
        return self._begin_cycle(iteration)

    def on_span_start(self, iteration: int, span_index: int, span: Span) -> None:
        if span.kind is SpanKind.COMM:
            self.exp.local_copier.on_comm_span(span.duration)
            return
        chunks = self.plan.chunks_for_span(self._idle_index)
        self._send([c.size for c in chunks])
        obs = self.exp.obs
        if obs is not None and obs.enabled and span.duration > 0:
            # Section 5.1's idle-timespan utilization: the fraction of an
            # idle span's line-rate byte capacity the schedule filled.
            capacity = self.exp.config.bandwidth * span.duration
            obs.metrics.histogram(
                "repro_idle_span_utilization_ratio",
                help="scheduled checkpoint bytes / idle-span byte capacity",
                buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0),
            ).observe(sum(c.size for c in chunks) / capacity)
        self._idle_index += 1


class GeminiScheme(_SpanScheduledScheme):
    """Algorithm 2 partitions + pipelined sub-buffers (the paper's design)."""


class NoPipelineScheme(_SpanScheduledScheme):
    """Algorithm 2 partitions with one buffer: transfer and copy serialize."""


class NaiveInterleaveScheme(_SpanScheduledScheme):
    """One partition per idle span: partitions must fill whole spans."""


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

class InterferenceExperiment:
    """Measures one scheme's impact on training throughput.

    Drives the representative-machine DES: online profiling for
    ``warmup_iterations`` without checkpointing, then ``num_iterations``
    with the scheme active.

    Parameters
    ----------
    model, instance, num_machines:
        The workload.
    scheme:
        One of :data:`SCHEME_NAMES`.
    num_replicas:
        m (default 2: one local + one remote replica).
    available_gpu_buffer_per_gpu:
        GPU memory actually free for checkpoint buffers; schemes whose
        required buffer exceeds it OOM instead of running.
    """

    def __init__(
        self,
        model: ModelConfig,
        instance: InstanceType,
        num_machines: int,
        scheme: str = "gemini",
        num_replicas: int = 2,
        config: Optional[Algorithm2Config] = None,
        plan: Optional[IterationPlan] = None,
        warmup_iterations: int = 20,
        available_gpu_buffer_per_gpu: float = DEFAULT_AVAILABLE_GPU_BUFFER_PER_GPU,
        jitter: float = 0.0,
        obs=None,
    ):
        if scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEME_NAMES}")
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        self.jitter = jitter
        #: optional :class:`repro.obs.Observability`; only the measured
        #: iterations are instrumented (profiling warm-up stays silent so
        #: iteration metrics reflect the scheme under test).
        self.obs = obs
        self.model = model
        self.instance = instance
        self.num_machines = num_machines
        self.scheme_name = scheme
        self.num_replicas = num_replicas
        self.warmup_iterations = warmup_iterations
        self.available_buffer_bytes = (
            available_gpu_buffer_per_gpu * instance.num_gpus
        )
        self.plan = plan or build_iteration_plan(model, instance, num_machines)
        self.spec = ShardingSpec(model, num_machines, instance.num_gpus)
        self.shard_bytes = self.spec.checkpoint_bytes_per_machine
        if config is None:
            num_buffers = 1 if scheme == "no_pipeline" else 4
            config = Algorithm2Config.default(
                bandwidth=instance.network_bandwidth,
                gpus_per_machine=instance.num_gpus,
                num_buffers=num_buffers,
            )
        self.config = config

        # Simulation scaffolding (built fresh per run()).
        self.sim: Optional[Simulator] = None
        self.fabric: Optional[Fabric] = None
        self.pipeline_out: Optional[ChunkPipeline] = None
        self.pipeline_in: Optional[ChunkPipeline] = None
        self.local_copier: Optional[LocalCopyScheduler] = None

    # -- plan construction ------------------------------------------------------

    def _naive_plan(self, profile: IdleProfile) -> PartitionPlan:
        """One span-filling partition per idle timespan."""
        model = CommCostModel(alpha=self.config.alpha, bandwidth=self.config.bandwidth)
        total = self.shard_bytes * (self.num_replicas - 1)
        chunks = []
        remaining = total
        from repro.core.partition import ChunkAssignment  # local to avoid cycle

        for span_index, span in enumerate(profile.spans):
            if remaining <= 0:
                break
            is_last = span_index == len(profile.spans) - 1
            capacity = float("inf") if is_last else model.bytes_in(self.config.gamma * span)
            size = min(remaining, capacity)
            if size <= 0:
                continue
            chunks.append(ChunkAssignment(span_index=span_index, checkpoint_index=0, size=size))
            remaining -= size
        return PartitionPlan(
            chunks=chunks,
            idle_spans=list(profile.spans),
            config=self.config,
            num_checkpoints=self.num_replicas - 1,
        )

    def required_buffer_bytes(self, profile: IdleProfile) -> float:
        """GPU buffer the scheme needs (OOM when above the available)."""
        if self.scheme_name == "baseline":
            return 0.0
        if self.scheme_name == "whole":
            return self.shard_bytes
        if self.scheme_name == "naive":
            plan = self._naive_plan(profile)
            return plan.max_chunk_bytes
        return self.config.reserved_buffer_bytes

    # -- running --------------------------------------------------------------------

    def run(
        self, num_iterations: int = 10, profile: Optional[IdleProfile] = None
    ) -> InterferenceResult:
        """Profile, build the scheme, and measure ``num_iterations``.

        ``profile`` is this workload's warm-up profile when the caller
        already has it (see :class:`SchemeRuns`); by default it is
        measured here.
        """
        if profile is None:
            profile = self._profile()
        required = self.required_buffer_bytes(profile)
        result = InterferenceResult(
            scheme=self.scheme_name,
            oom=required > self.available_buffer_bytes,
            required_buffer_bytes=required,
            available_buffer_bytes=self.available_buffer_bytes,
            baseline_iteration_time=self.plan.iteration_time,
            idle_time_without_ckpt=self.plan.total_idle_time,
            profile=profile,
        )
        if result.oom:
            return result

        self._build_sim(obs=self.obs)
        hooks = self._make_hooks(profile)
        recorder = TimelineRecorder()
        if self.obs is not None:
            self.obs.bind_clock(lambda: self.sim.now)
        loop = TrainingLoop(
            self.sim,
            self.fabric,
            self.plan,
            machine_id="rep0",
            peer_id="rep1",
            hooks=hooks,
            recorder=recorder,
            jitter=self.jitter,
            jitter_seed=1,  # measurement iterations see *different* noise
            obs=self.obs,
        )
        done = loop.run(num_iterations)
        self.sim.run_until_event(done, limit=self.plan.iteration_time * num_iterations * 10)
        # Effective iteration time includes gate waits: diff of end stamps.
        ends = [record.end for record in recorder.iterations]
        starts = [record.start for record in recorder.iterations]
        result.iteration_times = [end - start for start, end in zip(starts, ends)]
        result.checkpoint_cycles = getattr(hooks, "cycles", [])
        return result

    # -- internals ------------------------------------------------------------------

    def _profile(self) -> IdleProfile:
        """Online profiling: warm-up iterations without checkpointing."""
        self._build_sim()
        profiler = OnlineProfiler(warmup_iterations=self.warmup_iterations)

        class _ProfilingHooks(TrainingHooks):
            def on_iteration_end(self, record: IterationRecord) -> None:
                profiler.observe(record)

        loop = TrainingLoop(
            self.sim,
            self.fabric,
            self.plan,
            machine_id="rep0",
            peer_id="rep1",
            hooks=_ProfilingHooks(),
            jitter=self.jitter,
            jitter_seed=0,
        )
        done = loop.run(self.warmup_iterations)
        self.sim.run_until_event(
            done, limit=self.plan.iteration_time * self.warmup_iterations * 10
        )
        return profiler.profile()

    def _build_sim(self, obs=None) -> None:
        self.sim = Simulator(obs=obs)
        self.fabric = Fabric(self.sim, obs=obs)
        bandwidth = self.instance.network_bandwidth
        self.fabric.attach("rep0", bandwidth)
        self.fabric.attach("rep1", bandwidth)
        copy_rep0 = CopyEngine(self.sim, self.instance.gpu_to_cpu_bandwidth, "rep0-d2h")
        copy_rep1 = CopyEngine(self.sim, self.instance.gpu_to_cpu_bandwidth, "rep1-d2h")
        num_buffers = self.config.num_buffers
        self.pipeline_out = ChunkPipeline(
            self.sim, self.fabric, copy_rep1, "rep0", "rep1",
            num_buffers=num_buffers, alpha=self.config.alpha,
        )
        self.pipeline_in = ChunkPipeline(
            self.sim, self.fabric, copy_rep0, "rep1", "rep0",
            num_buffers=num_buffers, alpha=self.config.alpha,
        )
        self.local_copier = LocalCopyScheduler(
            self.sim, copy_rep0, chunk_bytes=self.config.max_chunk_bytes
        )

    def _make_hooks(self, profile: IdleProfile) -> TrainingHooks:
        if self.scheme_name == "baseline":
            return BaselineScheme(self)
        if self.scheme_name == "blocking":
            return BlockingScheme(self)
        if self.scheme_name == "naive":
            return NaiveInterleaveScheme(self, self._naive_plan(profile))
        # gemini / no_pipeline: Algorithm 2 partitions.
        plan = checkpoint_partition(
            profile.spans,
            self.shard_bytes,
            self.num_replicas,
            self.config,
        )
        if self.scheme_name == "no_pipeline":
            return NoPipelineScheme(self, plan)
        return GeminiScheme(self, plan)


class SchemeRuns:
    """Shares warm-up profiles and measured runs for the table's lifetime.

    The warm-up profile runs without checkpointing, so it depends only on
    the workload (model, instance, machine count, warm-up length): every
    scheme of a workload schedules into the same profile, as GEMINI
    profiles once (Section 5.4).  A measured run depends on that plus the
    scheme and its iteration count.  Both are deterministic, so the
    table hands back the very ``IdleProfile`` and ``InterferenceResult`` a
    fresh :func:`run_scheme` call would compute.  Make one table per
    report; nothing is kept past the table itself.
    """

    def __init__(self) -> None:
        self._profiles: Dict[Tuple, IdleProfile] = {}
        self._results: Dict[Tuple, InterferenceResult] = {}

    def run(
        self,
        model: ModelConfig,
        instance: InstanceType,
        num_machines: int,
        scheme: str,
        num_iterations: int = 10,
        warmup_iterations: int = 20,
    ) -> InterferenceResult:
        """``run_scheme`` with its defaults, simulated once per table."""
        workload = (model, instance, num_machines, warmup_iterations)
        key = workload + (scheme, num_iterations)
        result = self._results.get(key)
        if result is None:
            experiment = InterferenceExperiment(
                model, instance, num_machines, scheme=scheme,
                warmup_iterations=warmup_iterations,
            )
            profile = self._profiles.get(workload)
            if profile is None:
                profile = self._profiles[workload] = experiment._profile()
            result = self._results[key] = experiment.run(num_iterations, profile)
        return result


def run_scheme(
    model: ModelConfig,
    instance: InstanceType,
    num_machines: int,
    scheme: str,
    num_iterations: int = 10,
    **kwargs,
) -> InterferenceResult:
    """One-shot convenience wrapper around :class:`InterferenceExperiment`."""
    experiment = InterferenceExperiment(
        model, instance, num_machines, scheme=scheme, **kwargs
    )
    return experiment.run(num_iterations)

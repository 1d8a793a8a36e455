"""One experiment function per table/figure of the paper's evaluation.

Every function is self-contained and returns a list of row dicts (see each
docstring for the schema).  The benchmark suite runs these and asserts the
paper's qualitative shape; EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.instances import (
    INSTANCE_CATALOG,
    TABLE1_NAMES,
    InstanceType,
    P3DN_24XLARGE,
    P4D_24XLARGE,
)
from repro.core.interleave import SchemeRuns
from repro.core.probability import (
    recovery_probability,
    ring_recovery_probability_union_bound,
)
from repro.core.system import GeminiConfig, GeminiSystem
from repro.experiments.registry import policy_timings
from repro.failures.injector import OPT_DAILY_FAILURE_RATE, TraceFailureInjector
from repro.failures.types import FailureEvent, FailureType
from repro.metrics.checkpoint_time import (
    checkpoint_frequency_per_hour,
    reduction_factor,
)
from repro.metrics.efficiency import effective_training_time_ratio
from repro.metrics.wasted import average_wasted_time
from repro.training.models import (
    BERT_100B,
    BERT_40B,
    GPT2_10B,
    GPT2_20B,
    GPT2_40B,
    GPT2_100B,
    ROBERTA_100B,
    ROBERTA_40B,
    TABLE2_MODELS,
    ModelConfig,
)
from repro.training.states import ShardingSpec
from repro.training.timeline import build_iteration_plan
from repro.units import GB, HOUR, MINUTE, gbps

MODELS_100B = (GPT2_100B, ROBERTA_100B, BERT_100B)
MODELS_P3DN = (GPT2_10B, GPT2_20B, GPT2_40B, ROBERTA_40B, BERT_40B)

#: the evaluation's first-class policies, in the paper's plotting order;
#: resolved by name through :mod:`repro.experiments.registry`.
EVAL_POLICIES = ("gemini", "highfreq", "strawman")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_instances() -> List[Dict[str, Any]]:
    """Table 1: CPU memory dwarfs GPU memory on cloud GPU machines.

    Rows: instance, cloud, gpus, gpu_memory_gb, cpu_memory_gb, ratio.
    """
    rows = []
    for instance in (INSTANCE_CATALOG[name] for name in TABLE1_NAMES):
        rows.append(
            {
                "instance": instance.name,
                "cloud": instance.cloud,
                "gpus": f"{instance.num_gpus} {instance.gpu_model}",
                "gpu_memory_gb": instance.total_gpu_memory_bytes / GB,
                "cpu_memory_gb": instance.cpu_memory_bytes / GB,
                "ratio": instance.cpu_to_gpu_memory_ratio,
            }
        )
    return rows


def table2_models() -> List[Dict[str, Any]]:
    """Table 2: model configurations and computed parameter counts."""
    rows = []
    for model in TABLE2_MODELS:
        rows.append(
            {
                "model": model.name,
                "hidden": model.hidden_size,
                "intermediate": model.intermediate_size,
                "layers": model.num_layers,
                "heads": model.num_attention_heads,
                "nominal_b": model.nominal_billions,
                "computed_b": model.parameters_billions(),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 7, 8, 13: iteration time and idle time with/without GEMINI
# ---------------------------------------------------------------------------

def _throughput_rows(
    models: Sequence[ModelConfig],
    instance: InstanceType,
    num_machines: int,
    num_iterations: int,
    warmup_iterations: int,
    runs: Optional[SchemeRuns],
) -> List[Dict[str, Any]]:
    if runs is None:
        runs = SchemeRuns()
    rows = []
    for model in models:
        baseline = runs.run(
            model, instance, num_machines, "baseline", num_iterations, warmup_iterations
        )
        gemini = runs.run(
            model, instance, num_machines, "gemini", num_iterations, warmup_iterations
        )
        rows.append(
            {
                "model": model.name,
                "iteration_time_no_ckpt": baseline.mean_iteration_time,
                "iteration_time_gemini": gemini.mean_iteration_time,
                "overhead_fraction": gemini.overhead_fraction,
                "idle_time_no_ckpt": gemini.idle_time_without_ckpt,
                "gemini_ckpt_time": gemini.mean_checkpoint_network_time,
                "idle_time_with_gemini": gemini.idle_time_with_ckpt,
            }
        )
    return rows


def fig07_iteration_time(
    num_iterations: int = 10,
    warmup_iterations: int = 20,
    runs: Optional[SchemeRuns] = None,
) -> List[Dict[str, Any]]:
    """Figure 7: iteration time of the 100B models, 16 p4d, +-GEMINI.

    ``runs`` shares simulations with other figures (Figure 8 reads the
    same runs); by default the call makes its own table.
    """
    return _throughput_rows(
        MODELS_100B, P4D_24XLARGE, 16, num_iterations, warmup_iterations, runs
    )


def fig08_network_idle_time(
    num_iterations: int = 10,
    warmup_iterations: int = 20,
    runs: Optional[SchemeRuns] = None,
) -> List[Dict[str, Any]]:
    """Figure 8: idle time w/o ckpt, GEMINI ckpt time, residual idle time."""
    return _throughput_rows(
        MODELS_100B, P4D_24XLARGE, 16, num_iterations, warmup_iterations, runs
    )


def fig13_p3dn_generalization(
    num_iterations: int = 5,
    warmup_iterations: int = 10,
    runs: Optional[SchemeRuns] = None,
) -> List[Dict[str, Any]]:
    """Figure 13: the same measurements on 16 p3dn for 10B-40B models."""
    return _throughput_rows(
        MODELS_P3DN, P3DN_24XLARGE, 16, num_iterations, warmup_iterations, runs
    )


# ---------------------------------------------------------------------------
# Figure 9: recovery probability
# ---------------------------------------------------------------------------

def fig09_recovery_probability(
    instance_counts: Optional[Sequence[int]] = None,
) -> List[Dict[str, Any]]:
    """Figure 9: P(recover from CPU memory) vs N for GEMINI and Ring.

    Rows: num_instances, then one column per (strategy, m, k) curve.
    """
    if instance_counts is None:
        instance_counts = [8, 16, 24, 32, 48, 64, 96, 128]
    rows = []
    for n in instance_counts:
        rows.append(
            {
                "num_instances": n,
                "gemini_m2_k2": recovery_probability(n, 2, 2, "mixed"),
                "gemini_m2_k3": recovery_probability(n, 2, 3, "mixed"),
                "ring_m2_k2": ring_recovery_probability_union_bound(n, 2, 2),
                "ring_m2_k3": ring_recovery_probability_union_bound(n, 2, 3),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 10: average wasted time
# ---------------------------------------------------------------------------

def fig10_wasted_time(
    model: ModelConfig = GPT2_100B,
    num_machines: int = 16,
    max_replaced: int = 3,
) -> List[Dict[str, Any]]:
    """Figure 10: average wasted time vs #replaced instances, per policy."""
    spec = ShardingSpec(model, num_machines)
    plan = build_iteration_plan(model, P4D_24XLARGE, num_machines)
    rows = []
    for replaced in range(max_replaced + 1):
        row: Dict[str, Any] = {"num_replaced": replaced}
        for policy in ("strawman", "highfreq", "gemini"):
            scenario = average_wasted_time(policy, spec, plan, num_replaced=replaced)
            row[f"{policy}_wasted_min"] = scenario.expected_wasted_time / MINUTE
            if policy == "gemini":
                row["gemini_cpu_probability"] = scenario.cpu_recovery_probability
                row["gemini_wasted_if_recoverable_s"] = scenario.wasted_if_recoverable
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 11: checkpoint-time reduction
# ---------------------------------------------------------------------------

def fig11_checkpoint_time_reduction(
    model: ModelConfig = GPT2_100B,
    instance_counts: Sequence[int] = (4, 8, 16),
    bandwidths_gbps: Sequence[float] = (100, 200, 400),
) -> List[Dict[str, Any]]:
    """Figure 11: GEMINI's checkpoint-time reduction over the baselines."""
    rows = []
    for n in instance_counts:
        spec = ShardingSpec(model, n)
        row: Dict[str, Any] = {"num_instances": n}
        for bandwidth in bandwidths_gbps:
            row[f"reduction_{int(bandwidth)}gbps"] = reduction_factor(
                spec, gbps(bandwidth)
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 12: checkpoint frequency
# ---------------------------------------------------------------------------

def fig12_checkpoint_frequency(
    model: ModelConfig = GPT2_100B, num_machines: int = 16
) -> List[Dict[str, Any]]:
    """Figure 12: checkpoints/hour for GEMINI, Strawman, HighFreq."""
    spec = ShardingSpec(model, num_machines)
    plan = build_iteration_plan(model, P4D_24XLARGE, num_machines)
    policies = {
        name: policy_timings(name, spec, plan)
        for name in ("gemini", "strawman", "highfreq")
    }
    rows = []
    for name, timings in policies.items():
        rows.append(
            {
                "policy": name,
                "interval_s": timings.checkpoint_interval,
                "interval_iterations": timings.interval_iterations,
                "checkpoints_per_hour": checkpoint_frequency_per_hour(
                    timings.checkpoint_interval
                ),
                "checkpoint_time_s": timings.checkpoint_time,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 14: recovery timeline
# ---------------------------------------------------------------------------

def fig14_recovery_timeline(
    model: ModelConfig = GPT2_100B,
    num_machines: int = 16,
    failure_type: FailureType = FailureType.HARDWARE,
    num_standby: int = 0,
) -> Dict[str, Any]:
    """Figure 14: phase-by-phase overhead of one recovery with GEMINI.

    Returns a dict with the phase durations and totals (seconds).
    """
    system = GeminiSystem(
        model,
        P4D_24XLARGE,
        num_machines,
        config=GeminiConfig(num_standby=num_standby),
    )
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(10 * system.iteration_time, failure_type, [3])],
        system.inject_failure,
    )
    result = system.run(1.0 * HOUR)
    if not result.recoveries:
        raise RuntimeError("no recovery happened; failure not detected")
    record = result.recoveries[0]
    report: Dict[str, Any] = {
        "failure_type": failure_type.value,
        "total_overhead_s": record.total_overhead,
        "rollback_iteration": record.rollback_iteration,
        "source": record.source.value,
        "from_cpu_memory": record.from_cpu_memory,
    }
    report.update(
        {f"phase_{name}_s": value for name, value in record.phase_durations().items()}
    )
    return report


# ---------------------------------------------------------------------------
# Figure 15: scalability
# ---------------------------------------------------------------------------

def fig15a_failure_rates(
    model: ModelConfig = GPT2_100B,
    num_machines: int = 16,
    rates: Sequence[float] = (0, 1, 2, 4, 6, 8),
) -> List[Dict[str, Any]]:
    """Figure 15a: effective training-time ratio vs failures/day (N=16)."""
    spec = ShardingSpec(model, num_machines)
    plan = build_iteration_plan(model, P4D_24XLARGE, num_machines)
    rows = []
    for rate in rates:
        row: Dict[str, Any] = {"failures_per_day": rate}
        for name in EVAL_POLICIES:
            row[name] = effective_training_time_ratio(name, spec, plan, rate)
        rows.append(row)
    return rows


def fig15b_cluster_sizes(
    model: ModelConfig = GPT2_100B,
    sizes: Sequence[int] = (16, 64, 128, 256, 512, 1000),
    daily_rate_per_machine: float = OPT_DAILY_FAILURE_RATE,
) -> List[Dict[str, Any]]:
    """Figure 15b: effective ratio vs cluster size at 1.5%/machine/day."""
    rows = []
    for n in sizes:
        spec = ShardingSpec(model, n)
        plan = build_iteration_plan(model, P4D_24XLARGE, n)
        rate = daily_rate_per_machine * n
        row: Dict[str, Any] = {"num_instances": n, "failures_per_day": rate}
        for name in EVAL_POLICIES:
            row[name] = effective_training_time_ratio(name, spec, plan, rate)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 16: interleaving schemes
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Topology extension: placement strategy x fabric topology
# ---------------------------------------------------------------------------

def fig_topology_placement(
    clusters: Sequence[str] = (
        "p4d-flat16",
        "a3mega-rack4x4",
        "a3mega-rack4x4-1to8",
    ),
    strategies: Sequence[str] = ("group", "ring", "topology"),
    num_replicas: int = 2,
    model: ModelConfig = GPT2_100B,
) -> List[Dict[str, Any]]:
    """Topology extension: what Theorem 1 misses when failures are racks.

    For each catalog cluster x placement strategy, two numbers:

    - ``rack_survival`` — fraction of single-rack losses the placement
      recovers from CPU memory (``None`` on a flat cluster: there is no
      rack blast radius).  Group placement aligned with racks is pessimal
      here (a rack loss takes every replica of its shards); the
      topology-aware interleave spans racks and survives.
    - ``ckpt_makespan_s`` — makespan of one full checkpoint replication
      round through the real fabric (every rank streams its shard to its
      remote replica targets).  This is the price of spanning: cross-rack
      replicas ride the shared, oversubscribed uplinks.

    On the flat cluster the strategies are indistinguishable on makespan
    (all machine pairs are equivalent) — topology awareness is free there
    and matters exactly when oversubscription makes the fabric
    hierarchical.
    """
    from repro.cluster.catalog import get_cluster_spec
    from repro.core.placement import resolve_placement
    from repro.network.fabric import Fabric
    from repro.sim import Simulator

    rows = []
    for cluster in clusters:
        spec = get_cluster_spec(cluster)
        n = spec.num_machines
        domains = spec.fault_domains()
        shard = ShardingSpec(model, n).checkpoint_bytes_per_machine
        for strategy in strategies:
            placement = resolve_placement(strategy, n, num_replicas, domains=domains)

            if domains is None:
                survival: Optional[float] = None
            else:
                survived = sum(
                    1 for domain in domains if placement.recoverable(domain)
                )
                survival = survived / len(domains)

            sim = Simulator()
            fabric = Fabric(sim, topology=spec.build_topology())
            for rank, (instance, position) in enumerate(spec.rank_slots):
                fabric.attach(
                    f"m{rank}", instance.network_bandwidth, position=position
                )
            flows = []
            for rank in range(n):
                for target in placement.remote_targets(rank):
                    flow = fabric.transfer(f"m{rank}", f"m{target}", shard, tag="ckpt")
                    flow.done._defuse()
                    flows.append(flow)
            sim.run()
            makespan = max(flow.finished_at for flow in flows)

            rows.append(
                {
                    "cluster": cluster,
                    "topology": spec.topology.kind,
                    "oversubscription": spec.topology.oversubscription,
                    "strategy": strategy,
                    "rack_survival": survival,
                    "ckpt_makespan_s": makespan,
                }
            )
    return rows


def fig16_interleaving_schemes(
    model: ModelConfig = GPT2_40B,
    instance: InstanceType = P3DN_24XLARGE,
    num_machines: int = 16,
    num_iterations: int = 5,
    warmup_iterations: int = 10,
    runs: Optional[SchemeRuns] = None,
) -> List[Dict[str, Any]]:
    """Figure 16: iteration time under the five interleaving schemes.

    Its baseline and gemini runs are Figure 13's GPT-2 40B runs when both
    read one ``runs`` table at the same iteration counts.
    """
    if runs is None:
        runs = SchemeRuns()
    rows = []
    for scheme in ("baseline", "blocking", "naive", "no_pipeline", "gemini"):
        result = runs.run(
            model, instance, num_machines, scheme, num_iterations, warmup_iterations
        )
        rows.append(
            {
                "scheme": scheme,
                "oom": result.oom,
                "iteration_time": None if result.oom else result.mean_iteration_time,
                "overhead_fraction": None if result.oom else result.overhead_fraction,
                "required_buffer_gb": result.required_buffer_bytes / GB,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Frontier comparison: GEMINI vs. the 2023-2025 checkpointing frontier
# ---------------------------------------------------------------------------

#: the cross-policy comparison set: GEMINI plus the four frontier policies.
FRONTIER_POLICIES = ("gemini", "checkmate", "tiercheck", "sparse_moe", "reft")


def fig_frontier(
    model: ModelConfig = GPT2_100B,
    num_machines: int = 16,
    policies: Sequence[str] = FRONTIER_POLICIES,
    num_standby: int = 2,
) -> List[Dict[str, Any]]:
    """Frontier extension: fig10/12-style head-to-head on one kernel.

    Each policy gets two measurements on the same GPT-2 100B / 16-machine
    workload:

    - analytic — checkpoint cadence, steady-state stall fraction, and the
      Equation-1 expected loss per failure from an unbound policy probe;
    - simulated — one scripted DES run (a hardware failure at t=1000 s,
      a software failure at t=7000 s, 3 simulated hours) reporting each
      recovery's measured overhead and the achieved iteration count.

    All runs use fixed-delay detection (``use_agents=False``) so the
    comparison isolates the checkpointing mechanism.
    """
    from repro.core.kernel import SimulatedTrainingSystem
    from repro.experiments.registry import create_policy

    spec = ShardingSpec(model, num_machines)
    plan = build_iteration_plan(model, P4D_24XLARGE, num_machines)
    rows = []
    for name in policies:
        probe = create_policy(name, use_agents=False)
        timings = probe.timings(spec, plan)
        expected_loss = probe.expected_loss_per_failure(spec, plan)

        policy = create_policy(name, use_agents=False)
        system = SimulatedTrainingSystem(
            model,
            P4D_24XLARGE,
            num_machines,
            policy,
            seed=0,
            num_standby=num_standby,
        )
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [3]),
                FailureEvent(7000.0, FailureType.SOFTWARE, [5]),
            ],
            system.inject_failure,
        )
        result = system.run(3 * HOUR)
        overhead = {"hardware": None, "software": None}
        for record in result.recoveries:
            kind = record.failure_type.value
            if overhead.get(kind) is None:
                overhead[kind] = record.total_overhead
        achieved = result.final_iteration * result.iteration_time
        rows.append(
            {
                "policy": name,
                "checkpoint_interval_s": timings.checkpoint_interval,
                "stall_fraction": timings.stall_fraction,
                "expected_loss_per_failure_s": expected_loss,
                "hardware_recovery_s": overhead["hardware"],
                "software_recovery_s": overhead["software"],
                "final_iteration": result.final_iteration,
                "effective_ratio": achieved / result.elapsed,
            }
        )
    return rows

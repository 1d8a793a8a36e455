"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``report``     regenerate the paper's tables and figures
- ``simulate``   run a GEMINI training job with injected failures
- ``placement``  show Algorithm 1's placement and recovery probabilities
- ``schedule``   profile a workload and show Algorithm 2's chunk schedule
- ``advisor``    recommend a replica count for a workload
- ``observe``    summarize a saved trace (top spans, recovery phases)
- ``sweep``      fan a policy x failure-rate scenario grid across workers
- ``chaos``      run a chaos campaign (hostile failure models + invariant audit)
- ``fleet-report`` render a saved fleet telemetry log (post-hoc campaign view)
- ``bench``      measure DES hot-path throughput, append BENCH_*.json rows
- ``lint-sim``   run the determinism sanitizer over the simulator tree

``simulate --policy NAME`` runs any policy registered with
:mod:`repro.experiments.registry` (gemini, strawman, highfreq, the
frontier policies — checkmate, tiercheck, sparse_moe, reft — or a
``repro.policies`` entry-point plug-in) through the shared simulation
kernel.

``simulate`` grows observability outputs: ``--metrics-out metrics.prom``
writes Prometheus text exposition, ``--trace-out trace.json`` writes a
Chrome trace (Perfetto-loadable; use a ``.jsonl`` suffix for span JSONL
instead), and ``--events-out events.jsonl`` saves the raw TraceLog.

``sweep`` and ``chaos`` grow *fleet telemetry* flags (``--progress``,
``--telemetry-out``, ``--serve-metrics``): wall-clock observability about
the campaign's execution, riding a fail-open side channel.  Result rows
and ``--out`` bytes are identical with telemetry on, off, or broken —
pinned by the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Tuple

from repro.cluster.instances import get_instance_type
from repro.core.partition import Algorithm2Config, checkpoint_partition
from repro.core.placement import mixed_placement
from repro.core.probability import recovery_probability
from repro.core.replicas import evaluate_replica_options, recommend_replicas
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.harness.format import render_table
from repro.harness.gantt import render_iteration_gantt
from repro.training.models import get_model
from repro.training.states import ShardingSpec
from repro.training.timeline import build_iteration_plan
from repro.units import fmt_bytes, fmt_seconds


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="GPT-2 100B", help="Table 2 model name")
    parser.add_argument(
        "--instance", default="p4d.24xlarge", help="Table 1 instance type"
    )
    parser.add_argument("--machines", type=int, default=16, help="cluster size N")
    parser.add_argument("--replicas", type=int, default=2, help="replica count m")


def _workload(args):
    model = get_model(args.model)
    instance = get_instance_type(args.instance)
    plan = build_iteration_plan(model, instance, args.machines)
    spec = ShardingSpec(model, args.machines, instance.num_gpus)
    return model, instance, plan, spec


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """Fleet telemetry flags shared by ``sweep`` and ``chaos``."""
    parser.add_argument(
        "--progress", action="store_true",
        help="live campaign progress line on stderr (TTY-aware; "
             "result bytes are unchanged)",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help="write fleet telemetry events as JSONL, plus a Chrome trace "
             "next to it (PATH + .trace.json; one lane per worker)",
    )
    parser.add_argument(
        "--serve-metrics", type=int, metavar="PORT",
        help="serve Prometheus metrics at 127.0.0.1:PORT/metrics while the "
             "campaign runs (0 picks a free port, printed on stderr)",
    )


def _fleet_trace_path(path: str) -> str:
    """Derived Chrome-trace path for a telemetry JSONL path."""
    stem = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
    return stem + ".trace.json"


def _fleet_setup(args) -> Tuple[Any, Any, Any]:
    """Build the telemetry side channel the fleet flags ask for.

    Returns ``(telemetry, progress, server)`` — all ``None`` when no
    fleet flag was given.  Setup failures print a warning and disable
    telemetry instead of failing the run: observability is strictly
    best-effort, the campaign result never depends on it.
    """
    wants = bool(
        args.progress or args.telemetry_out or args.serve_metrics is not None
    )
    if not wants:
        return None, None, None
    try:
        from repro.obs.fleet import FleetAggregator, FleetProgress, MetricsServer

        telemetry = FleetAggregator()
        progress = FleetProgress() if args.progress else None
        server = None
        if args.serve_metrics is not None:
            server = MetricsServer(telemetry, port=args.serve_metrics).start()
            print(f"serving fleet metrics at {server.url}", file=sys.stderr)
        return telemetry, progress, server
    except Exception as exc:
        print(f"warning: fleet telemetry disabled: {exc}", file=sys.stderr)
        return None, None, None


def _fleet_teardown(args, telemetry: Any, server: Any) -> None:
    """Write telemetry artifacts and stop the metrics server (best effort)."""
    if server is not None:
        try:
            server.stop()
        except Exception:
            pass
    if telemetry is None or not args.telemetry_out:
        return
    try:
        telemetry.write_events_jsonl(args.telemetry_out)
        trace_path = _fleet_trace_path(args.telemetry_out)
        telemetry.write_chrome_trace(trace_path)
        print(
            f"wrote fleet telemetry to {args.telemetry_out} (+ {trace_path})",
            file=sys.stderr,
        )
    except Exception as exc:
        print(f"warning: could not write telemetry: {exc}", file=sys.stderr)


def cmd_report(args) -> int:
    from repro.harness.report import build_report, render_text, write_markdown_report

    if args.markdown:
        sections = write_markdown_report(args.markdown, include_des=args.des)
        print(f"wrote {len(sections)} sections to {args.markdown}")
        return 0
    print(render_text(build_report(include_des=args.des)))
    if not args.des:
        print("(pass --des for figures 7/8/13/16; figure 14 is in "
              "`python examples/paper_report.py`)")
    return 0


def cmd_simulate(args) -> int:
    from repro.core.kernel import SimulatedTrainingSystem
    from repro.experiments.registry import create_policy
    from repro.obs import Observability, write_chrome_trace, write_prometheus, \
        write_spans_jsonl

    cluster_spec = None
    if getattr(args, "cluster", None):
        from repro.cluster.catalog import get_cluster_spec

        try:
            cluster_spec = get_cluster_spec(args.cluster)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        # The spec pins cluster size and (primary) shape; --machines /
        # --instance are superseded for this run.
        args.machines = cluster_spec.num_machines
        args.instance = cluster_spec.primary_instance_type().name
    model, instance, plan, _spec = _workload(args)
    wants_obs = bool(args.metrics_out or args.trace_out)
    obs = Observability() if wants_obs else None
    # Every policy detects through GEMINI's agents (§3.2), so the runs
    # differ only in checkpointing and recovery.
    policy_kwargs = {"num_replicas": args.replicas, "use_agents": True}
    if getattr(args, "placement", None):
        policy_kwargs["placement_strategy"] = args.placement
    try:
        policy = create_policy(args.policy, **policy_kwargs)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    system = SimulatedTrainingSystem(
        model,
        instance,
        args.machines,
        policy,
        seed=args.seed,
        num_standby=args.standby,
        plan=plan,
        obs=obs,
        sanitize=args.sanitize,
        cluster_spec=cluster_spec,
    )
    events = []
    for spec_text in args.fail or []:
        time_text, type_text, ranks_text = spec_text.split(":")
        events.append(
            FailureEvent(
                float(time_text),
                FailureType(type_text),
                [int(rank) for rank in ranks_text.split(",")],
            )
        )
    if events:
        TraceFailureInjector(system.sim, system.cluster, events, system.inject_failure)
    result = system.run(args.duration)
    print(f"simulated {fmt_seconds(result.elapsed)}: "
          f"{result.final_iteration} iterations, "
          f"effective ratio {result.effective_ratio:.3f}")
    for record in result.recoveries:
        print(
            f"  recovery: {record.failure_type.value} ranks={record.failed_ranks} "
            f"source={record.source.value} overhead={fmt_seconds(record.total_overhead)}"
        )
    if args.metrics_out:
        write_prometheus(obs.metrics, args.metrics_out)
        print(f"wrote {len(obs.metrics)} metric families to {args.metrics_out}")
    if args.trace_out:
        obs.tracer.ingest_trace_log(system.trace)
        if args.trace_out.endswith(".jsonl"):
            write_spans_jsonl(obs.tracer, args.trace_out)
        else:
            write_chrome_trace(obs.tracer, args.trace_out)
        print(f"wrote {len(obs.tracer)} spans to {args.trace_out}")
    if args.events_out:
        system.trace.save(args.events_out)
        print(f"wrote {len(system.trace)} events to {args.events_out}")
    return 0


def cmd_observe(args) -> int:
    from repro.obs import load_trace, render_summary, summarize, summary_to_dict

    try:
        spans, instants = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    if not spans and not instants:
        # keep stdout machine-readable under --json: the diagnostic goes
        # to stderr either way, stdout stays empty.
        print(f"{args.trace}: no spans or events found", file=sys.stderr)
        return 1
    summary = summarize(spans, instants)
    if args.json:
        print(json.dumps(summary_to_dict(summary, top=args.top), sort_keys=True,
                         indent=2))
    else:
        print(render_summary(summary, top=args.top))
    return 0


def cmd_fleet_report(args) -> int:
    from repro.obs.fleet import read_fleet_events, render_fleet_summary, replay_events

    try:
        events = read_fleet_events(args.events)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read telemetry log {args.events}: {exc}",
              file=sys.stderr)
        return 1
    aggregator = replay_events(events)
    summary = aggregator.summary()
    if args.trace_out:
        try:
            aggregator.write_chrome_trace(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace {args.trace_out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        print(render_fleet_summary(summary))
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import SweepRunner, fig15_grid

    try:
        scenarios = fig15_grid(
            policies=tuple(args.policies),
            rates=tuple(args.rates),
            model=args.model,
            instance=args.instance,
            num_machines=args.machines,
            horizon_days=args.horizon_days,
            seeds=tuple(args.seeds),
            num_standby=args.standby,
            clusters=tuple(args.clusters) if args.clusters else ("",),
        )
        runner = SweepRunner(
            scenarios, workers=args.workers, cache_dir=args.cache_dir
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    if args.dry_run:
        print(f"{len(scenarios)} scenarios ({args.workers} workers):")
        for scenario in scenarios:
            print(
                f"  {scenario.scenario_hash()}  {scenario.name:<16} "
                f"rate={scenario.failures_per_day:g}/day "
                f"horizon={scenario.horizon_days:g}d seeds={list(scenario.seeds)}"
            )
        return 0
    telemetry, progress, server = _fleet_setup(args)
    runner.telemetry = telemetry
    runner.progress = progress
    try:
        if args.out:
            rows = runner.write_jsonl(args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
            return 0
        rows = runner.run()
    finally:
        _fleet_teardown(args, telemetry, server)
    print(render_table(
        [
            {
                "scenario": row["scenario"],
                "rate/day": row["failures_per_day"],
                "mean_ratio": row["mean_ratio"],
                "failures": row["total_failures"],
                "recoveries": row["total_recoveries"],
            }
            for row in rows
        ],
        float_format="{:.3f}",
    ))
    return 0


def cmd_chaos(args) -> int:
    from repro.chaos import CAMPAIGN_PRESETS, chaos_grid, run_campaign

    grid_kwargs = dict(CAMPAIGN_PRESETS.get(args.campaign, {})) if args.campaign else {}
    if args.campaign and args.campaign not in CAMPAIGN_PRESETS:
        valid = ", ".join(sorted(CAMPAIGN_PRESETS))
        print(f"error: unknown campaign {args.campaign!r}; valid choices: {valid}",
              file=sys.stderr)
        return 2
    # Explicit flags override the preset.
    if args.policies is not None:
        grid_kwargs["policies"] = tuple(args.policies)
    if args.models is not None:
        grid_kwargs["models"] = tuple(args.models)
    if args.seeds is not None:
        grid_kwargs["seeds"] = tuple(args.seeds)
    if args.horizon_days is not None:
        grid_kwargs["horizon_days"] = args.horizon_days
    if args.degrade is not None:
        grid_kwargs["degradations"] = tuple(args.degrade)
        grid_kwargs.setdefault("degradation_events_per_day", 6.0)
    if args.degradation_rate is not None:
        grid_kwargs["degradation_events_per_day"] = args.degradation_rate
    grid_kwargs["num_machines"] = args.machines
    grid_kwargs["failures_per_day"] = args.events_per_day
    grid_kwargs["domain_size"] = args.domain_size
    grid_kwargs["spare_one"] = args.spare_one
    grid_kwargs["num_standby"] = args.standby
    grid_kwargs["sanitize"] = args.sanitize
    try:
        scenarios = chaos_grid(**grid_kwargs)
        for scenario in scenarios:
            scenario.validate()
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(f"{len(scenarios)} chaos scenarios ({args.workers} workers):")
        for scenario in scenarios:
            degradations = ",".join(scenario.degradations) or "-"
            print(
                f"  {scenario.scenario_hash()}  {scenario.name:<24} "
                f"events={scenario.failures_per_day:g}/day "
                f"degrade={degradations} horizon={scenario.horizon_days:g}d "
                f"seeds={list(scenario.seeds)}"
            )
        return 0
    telemetry, progress, server = _fleet_setup(args)
    try:
        report = run_campaign(
            scenarios,
            workers=args.workers,
            cache_dir=args.cache_dir,
            out=args.out,
            telemetry=telemetry,
            progress=progress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _fleet_teardown(args, telemetry, server)
    print(report.render())
    if args.out:
        print(f"\nwrote {len(report.rows)} rows to {args.out}")
    if args.report:
        report.write(args.report)
        print(f"wrote campaign report to {args.report}")
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    import pathlib

    from repro.perf import check_regression, run_benchmarks, write_bench_row

    if args.profile:
        from repro.perf import BENCH_NAMES, profile_benchmark

        selected = tuple(args.only) if args.only else BENCH_NAMES
        unknown = sorted(set(selected) - set(BENCH_NAMES))
        if unknown:
            print(
                f"error: unknown benchmarks {unknown}; "
                f"choose from {list(BENCH_NAMES)}",
                file=sys.stderr,
            )
            return 2
        out_dir = pathlib.Path(args.out_dir)
        for name in BENCH_NAMES:
            if name not in selected:
                continue
            result, dump_path, report = profile_benchmark(
                name, quick=args.quick, repeats=args.repeats, out_dir=out_dir
            )
            print(f"== {name}: {result.metric} = {result.value:,.2f} "
                  "(under cProfile; not gated, not recorded)")
            print(report, end="")
            print(f"profile dump: {dump_path}")
        return 0

    telemetry = None
    emitter = None
    if args.telemetry_out:
        try:
            from repro.obs.fleet import FleetAggregator

            telemetry = FleetAggregator()
            telemetry.start(0)
            emitter = telemetry.direct_emitter(worker="bench")
        except Exception as exc:
            print(f"warning: bench telemetry disabled: {exc}", file=sys.stderr)
            telemetry = None
            emitter = None
    try:
        results = run_benchmarks(
            quick=args.quick, only=args.only, repeats=args.repeats,
            emitter=emitter,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if telemetry is not None:
        try:
            telemetry.finalize()
            telemetry.write_events_jsonl(args.telemetry_out)
            print(f"wrote bench telemetry to {args.telemetry_out}",
                  file=sys.stderr)
        except Exception as exc:
            print(f"warning: could not write telemetry: {exc}", file=sys.stderr)
    out_dir = pathlib.Path(args.out_dir)
    for result in results:
        write_bench_row(out_dir, result)
    print(render_table(
        [
            {
                "benchmark": result.name,
                "metric": result.metric,
                "value": result.value,
                "direction": "higher" if result.higher_is_better else "lower",
            }
            for result in results
        ],
        float_format="{:.2f}",
    ))
    print(f"appended {len(results)} row(s) under {out_dir}/BENCH_<name>.json")
    if args.against:
        try:
            failures = check_regression(
                results, args.against, max_regression=args.max_regression
            )
        except (OSError, ValueError) as exc:
            print(f"error: cannot check baseline {args.against}: {exc}",
                  file=sys.stderr)
            return 2
        if failures:
            for message in failures:
                print(f"REGRESSION {message}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.against} "
              f"(tolerance {args.max_regression:.0%})")
    return 0


def cmd_lint_sim(args) -> int:
    import pathlib

    from repro.analysis import (
        Baseline,
        DEFAULT_BASELINE_NAME,
        describe_rules,
        lint_paths,
        rules_for_family,
    )

    if args.list_rules:
        for code, name, summary in describe_rules():
            print(f"{code}  {name:<24} {summary}")
        return 0
    try:
        rules = rules_for_family(args.rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        default = pathlib.Path(DEFAULT_BASELINE_NAME)
        baseline_path = str(default) if default.exists() else None
    if baseline_path is not None and not args.no_baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
    try:
        report = lint_paths(args.paths, baseline=baseline, rules=rules)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        Baseline.from_findings(report.findings).save(target)
        print(
            f"wrote {len(report.findings)} grandfathered finding(s) to {target}; "
            "add a one-line justification to each entry"
        )
        return 0
    if args.prune_baseline:
        if baseline is None:
            print("error: --prune-baseline needs a baseline file", file=sys.stderr)
            return 2
        if report.stale_entries:
            baseline.pruned(report.stale_entries).save(baseline_path)
            for entry in report.stale_entries:
                print(f"pruned {entry.code} {entry.path} {entry.fingerprint}")
            print(
                f"removed {len(report.stale_entries)} stale entry(s) "
                f"from {baseline_path}"
            )
            report.stale_entries = []
        else:
            print(f"no stale entries in {baseline_path}")
    print(report.render(verbose=args.verbose, format=args.format))
    return 0 if report.gate_ok else 1


def cmd_placement(args) -> int:
    placement = mixed_placement(args.machines, args.replicas)
    print(f"strategy: {placement.strategy.value}")
    for group in placement.groups:
        print(f"  group {list(group)}")
    rows = [
        {
            "k": k,
            "P(recover from CPU memory)": recovery_probability(
                args.machines, args.replicas, k, "mixed"
            ),
        }
        for k in range(1, min(args.machines, 2 * args.replicas + 2))
    ]
    print(render_table(rows, float_format="{:.4f}"))
    return 0


def cmd_schedule(args) -> int:
    model, instance, plan, spec = _workload(args)
    config = Algorithm2Config.default(
        bandwidth=instance.network_bandwidth, gpus_per_machine=instance.num_gpus
    )
    partition = checkpoint_partition(
        plan.idle_spans(), spec.checkpoint_bytes_per_machine, args.replicas, config
    )
    print(f"{model.name} on {args.machines}x {instance.name}")
    print(f"iteration {fmt_seconds(plan.iteration_time)}, "
          f"idle {fmt_seconds(plan.total_idle_time)}, "
          f"shard {fmt_bytes(spec.checkpoint_bytes_per_machine)}")
    print(f"chunks: {len(partition.chunks)} x <= {fmt_bytes(config.max_chunk_bytes)}; "
          f"fits: {partition.fits_within_idle_time}\n")
    print(render_iteration_gantt(plan, partition))
    return 0


def cmd_advisor(args) -> int:
    model, instance, plan, spec = _workload(args)
    config = Algorithm2Config.default(
        bandwidth=instance.network_bandwidth, gpus_per_machine=instance.num_gpus
    )
    wasted_recoverable = 1.5 * plan.iteration_time
    wasted_degraded = args.degraded_wasted_minutes * 60.0
    options = evaluate_replica_options(
        spec, plan, config, wasted_recoverable, wasted_degraded
    )
    rows = [
        {
            "m": option.num_replicas,
            "P(k=2)": option.recovery_probability_k2,
            "P(k=3)": option.recovery_probability_k3,
            "E[wasted]_s": option.expected_wasted_time,
            "traffic": fmt_bytes(option.checkpoint_traffic_bytes),
            "fits_idle": option.fits_idle_time,
            "cpu_mem": fmt_bytes(option.cpu_memory_per_machine),
        }
        for option in options
    ]
    print(render_table(rows, float_format="{:.3f}"))
    best = recommend_replicas(
        spec, plan, config, wasted_recoverable, wasted_degraded
    )
    print(f"\nrecommended: m = {best.num_replicas}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GEMINI (SOSP 2023) reproduction toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="regenerate paper tables/figures")
    report.add_argument("--markdown", metavar="PATH",
                        help="write a markdown report instead of printing")
    report.add_argument("--des", action="store_true",
                        help="include the slower DES-backed figures (7/8/13/16)")
    report.set_defaults(func=cmd_report)

    simulate = commands.add_parser(
        "simulate", help="run a training job under a registered policy"
    )
    _add_workload_arguments(simulate)
    simulate.add_argument(
        "--policy", default="gemini",
        help="registered checkpoint policy (gemini, strawman, highfreq, "
             "checkmate, tiercheck, sparse_moe, reft, ...)",
    )
    simulate.add_argument(
        "--cluster", metavar="NAME",
        help="catalog ClusterSpec (e.g. a3mega-rack4x4); pins cluster "
             "size, machine shapes and fabric topology, superseding "
             "--machines/--instance",
    )
    simulate.add_argument(
        "--placement", metavar="STRATEGY",
        help="replica placement: mixed (default), group, ring, or "
             "topology (rack-spanning groups; needs a non-flat --cluster)",
    )
    simulate.add_argument("--duration", type=float, default=3600.0)
    simulate.add_argument("--standby", type=int, default=0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--fail",
        action="append",
        metavar="TIME:TYPE:RANKS",
        help="inject failure, e.g. 1200:hardware:3,4 (repeatable)",
    )
    simulate.add_argument(
        "--metrics-out", metavar="PATH",
        help="write metrics in Prometheus text format (e.g. metrics.prom)",
    )
    simulate.add_argument(
        "--trace-out", metavar="PATH",
        help="write spans as Chrome trace JSON (Perfetto-loadable); "
             "a .jsonl suffix writes span JSONL instead",
    )
    simulate.add_argument(
        "--events-out", metavar="PATH",
        help="write the raw TraceLog as JSONL (reload with TraceLog.load)",
    )
    simulate.add_argument(
        "--sanitize", action="store_true",
        help="arm the runtime determinism guard: ambient clock/RNG reads "
             "raise DeterminismViolation while the simulation runs",
    )
    simulate.set_defaults(func=cmd_simulate)

    lint_sim = commands.add_parser(
        "lint-sim",
        help="run the static sanitizers (DET determinism + RACE "
             "yield-point races) over a tree",
    )
    lint_sim.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint_sim.add_argument(
        "--rules", choices=["det", "race", "all"], default="all",
        help="rule family to run: det (DET001-005 determinism), race "
             "(RACE001-005 yield-point races), or all (default)",
    )
    lint_sim.add_argument(
        "--format", choices=["human", "json", "github"], default="human",
        help="output format: human (default), json, or github "
             "workflow-annotation lines (::error file=...)",
    )
    lint_sim.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file of grandfathered findings "
             "(default: lint-baseline.json if present)",
    )
    lint_sim.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    lint_sim.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather all current findings into the baseline file",
    )
    lint_sim.add_argument(
        "--prune-baseline", action="store_true",
        help="remove stale baseline entries (fingerprints matching no "
             "current finding in the checked paths) and rewrite the file",
    )
    lint_sim.add_argument(
        "--list-rules", action="store_true",
        help="list rule codes and the invariants they protect",
    )
    lint_sim.add_argument(
        "--verbose", action="store_true",
        help="also show baselined findings",
    )
    lint_sim.set_defaults(func=cmd_lint_sim)

    sweep = commands.add_parser(
        "sweep", help="run a policy x failure-rate scenario grid"
    )
    sweep.add_argument("--model", default="GPT-2 100B", help="Table 2 model name")
    sweep.add_argument(
        "--instance", default="p4d.24xlarge", help="Table 1 instance type"
    )
    sweep.add_argument("--machines", type=int, default=16, help="cluster size N")
    sweep.add_argument(
        "--policies", nargs="+", default=["gemini", "highfreq", "strawman"],
        metavar="NAME", help="registered policy names to sweep",
    )
    sweep.add_argument(
        "--rates", nargs="+", type=float, default=[2.0, 4.0],
        metavar="PER_DAY", help="cluster-wide failure rates (failures/day)",
    )
    sweep.add_argument(
        "--seeds", nargs="+", type=int, default=[0, 1, 2], metavar="SEED"
    )
    sweep.add_argument(
        "--clusters", nargs="+", metavar="NAME",
        help="catalog ClusterSpec names as an extra grid axis; "
             "'' (empty) keeps the flat legacy slice",
    )
    sweep.add_argument("--horizon-days", type=float, default=1.0)
    sweep.add_argument("--standby", type=int, default=2)
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (results "
        "are byte-identical regardless of the count)",
    )
    sweep.add_argument("--out", metavar="PATH", help="write rows as JSONL")
    sweep.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache result rows keyed by scenario hash; reruns are free",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="list the scenario grid (with hashes) without running it",
    )
    _add_fleet_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    chaos = commands.add_parser(
        "chaos",
        help="run a chaos campaign: hostile failure models + recovery "
             "invariant audit",
    )
    chaos.add_argument(
        "--campaign", metavar="PRESET",
        help="named preset (quick, ci, frontier, nightly, fleet); flags "
             "override its values",
    )
    chaos.add_argument(
        "--policies", nargs="+", metavar="NAME",
        help="registered policy names (default: gemini highfreq strawman)",
    )
    chaos.add_argument(
        "--models", nargs="+", metavar="MODEL",
        help="failure models: correlated, adversarial, empirical, poisson",
    )
    chaos.add_argument("--seeds", nargs="+", type=int, metavar="SEED")
    chaos.add_argument("--machines", type=int, default=16, help="cluster size N")
    chaos.add_argument(
        "--events-per-day", type=float, default=8.0,
        help="cluster-wide failure events per day",
    )
    chaos.add_argument(
        "--domain-size", type=int, default=2,
        help="fault-domain size for the correlated model",
    )
    chaos.add_argument(
        "--spare-one", action="store_true",
        help="adversarial model: spare one member of each targeted replica set",
    )
    chaos.add_argument(
        "--degrade", nargs="+", metavar="KIND",
        help="degradation injectors: bandwidth, corruption, straggler",
    )
    chaos.add_argument(
        "--degradation-rate", type=float, metavar="PER_DAY",
        help="degradation events per day (default 6 when --degrade is given)",
    )
    chaos.add_argument("--horizon-days", type=float, help="per-seed horizon")
    chaos.add_argument("--standby", type=int, default=2)
    chaos.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results are byte-identical regardless)",
    )
    chaos.add_argument("--out", metavar="PATH", help="write raw rows as JSONL")
    chaos.add_argument(
        "--report", metavar="PATH",
        help="write the full campaign report (canonical JSON)",
    )
    chaos.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache result rows keyed by scenario hash; reruns are free",
    )
    chaos.add_argument(
        "--sanitize", action="store_true",
        help="arm the runtime determinism guard inside every kernel",
    )
    chaos.add_argument(
        "--dry-run", action="store_true",
        help="list the scenario grid (with hashes) without running it",
    )
    _add_fleet_arguments(chaos)
    chaos.set_defaults(func=cmd_chaos)

    bench = commands.add_parser(
        "bench", help="measure DES hot-path performance (BENCH_*.json rows)"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="shrunken workloads for CI smoke runs (seconds, not minutes)",
    )
    bench.add_argument(
        "--only", nargs="+", metavar="NAME",
        help="run a subset of benchmarks "
             "(churn, churn_1k, fabric_multihop, simulate, sweep)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="repeat each workload and keep the best (full mode only)",
    )
    bench.add_argument(
        "--out-dir", default="benchmarks", metavar="DIR",
        help="directory for BENCH_<name>.json trajectory files",
    )
    bench.add_argument(
        "--against", metavar="PATH",
        help="baseline JSON to gate on (e.g. benchmarks/bench_baseline.json)",
    )
    bench.add_argument(
        "--max-regression", type=float, default=0.30,
        help="relative tolerance before --against fails (default 0.30)",
    )
    bench.add_argument(
        "--telemetry-out", metavar="PATH",
        help="write fleet telemetry events for the bench run as JSONL",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="run under cProfile: print the top-25 cumulative table and "
             "dump PROFILE_<name>.pstats next to the trajectory files "
             "(numbers carry profiler overhead; no rows appended, no gating)",
    )
    bench.set_defaults(func=cmd_bench)

    observe = commands.add_parser(
        "observe", help="summarize a saved trace (spans, phases, events)"
    )
    observe.add_argument("trace", help="trace file from simulate --trace-out")
    observe.add_argument("--top", type=int, default=15,
                         help="how many span names to show (by total time)")
    observe.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of the text report",
    )
    observe.set_defaults(func=cmd_observe)

    fleet_report = commands.add_parser(
        "fleet-report",
        help="render a saved fleet telemetry log (from --telemetry-out)",
    )
    fleet_report.add_argument(
        "events", help="telemetry JSONL written by sweep/chaos --telemetry-out"
    )
    fleet_report.add_argument(
        "--json", action="store_true",
        help="print the fleet summary as JSON instead of tables",
    )
    fleet_report.add_argument(
        "--trace-out", metavar="PATH",
        help="also write the replayed campaign as Chrome trace JSON",
    )
    fleet_report.set_defaults(func=cmd_fleet_report)

    placement = commands.add_parser("placement", help="Algorithm 1 + probabilities")
    placement.add_argument("--machines", type=int, default=16)
    placement.add_argument("--replicas", type=int, default=2)
    placement.set_defaults(func=cmd_placement)

    schedule = commands.add_parser("schedule", help="Algorithm 2 chunk schedule")
    _add_workload_arguments(schedule)
    schedule.set_defaults(func=cmd_schedule)

    advisor = commands.add_parser("advisor", help="recommend a replica count")
    _add_workload_arguments(advisor)
    advisor.add_argument(
        "--degraded-wasted-minutes",
        type=float,
        default=108.0,
        help="wasted time when falling back to persistent storage",
    )
    advisor.set_defaults(func=cmd_advisor)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

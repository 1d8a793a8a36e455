"""Performance benchmark harness for the DES hot paths.

``python -m repro bench`` measures three things and records each as one
row in a canonical ``BENCH_<name>.json`` file, so every PR leaves a
performance trajectory behind:

- ``churn``     — raw fabric+engine throughput (events/sec) on a synthetic
  flow-churn workload: many machines, staggered contending transfers.
  This is the microbenchmark the incremental-settle work is gated on.
- ``churn_1k``  — the same churn shape at fleet scale: 1024 machines,
  the fabric width the nightly 1k-machine chaos campaign leans on.
- ``fabric_multihop`` — the same churn shape over a rack topology with
  oversubscribed shared uplinks, so every cross-rack flow carries a
  4-link path and uplink fair shares churn with it.
- ``simulate``  — wall seconds for one end-to-end failure/recovery run
  through :class:`repro.core.kernel.SimulatedTrainingSystem`.
- ``sweep``     — wall seconds for a small scenario grid through
  :class:`repro.experiments.SweepRunner` (single worker, no cache).

The workloads themselves are deterministic (seeded ``RandomStreams``,
fixed grids); only the wall-clock measurements vary by host, which is why
this module is exempt from DET001/DET005 — it is an entry point that
legitimately reads the host clock, like the CLI.

``BENCH_<name>.json`` holds a JSON array of rows, appended per run:
``{"schema": 1, "name": ..., "metric": ..., "value": ..., "params": ...,
"python": ..., "machine": ..., "timestamp": ...}``.  Higher is better for
``events_per_sec``; lower is better for ``wall_seconds`` — the regression
check (``--against``) honors the direction.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

from repro.network.fabric import Fabric
from repro.network.topology import Position, RackTopology
from repro.sim import RandomStreams, Simulator

__all__ = [
    "BenchResult",
    "BENCH_NAMES",
    "bench_churn",
    "bench_churn_1k",
    "bench_fabric_multihop",
    "bench_frontier_churn",
    "bench_simulate",
    "bench_sweep",
    "build_churn_workload",
    "build_multihop_workload",
    "check_regression",
    "churn_events_per_sec",
    "multihop_events_per_sec",
    "profile_benchmark",
    "run_benchmarks",
    "write_bench_row",
]

SCHEMA_VERSION = 1

#: benchmark names in canonical run order.
BENCH_NAMES = (
    "churn",
    "churn_1k",
    "fabric_multihop",
    "frontier_churn",
    "simulate",
    "sweep",
)


@dataclass(frozen=True)
class BenchResult:
    """One benchmark measurement, ready to serialize as a trajectory row."""

    name: str
    metric: str  # "events_per_sec" (higher better) | "wall_seconds" (lower better)
    value: float
    params: Dict[str, Any]

    @property
    def higher_is_better(self) -> bool:
        return self.metric == "events_per_sec"

    def row(self) -> Dict[str, Any]:
        """Canonical JSON row (host metadata makes trajectories comparable)."""
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "metric": self.metric,
            "value": round(self.value, 4),
            "params": dict(self.params),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "timestamp": datetime.now(tz=timezone.utc).isoformat(timespec="seconds"),
        }


# -- workloads -----------------------------------------------------------------


def build_churn_workload(
    num_machines: int,
    num_flows: int,
    seed: int = 0,
) -> Simulator:
    """A fabric-churn simulation, primed but not yet run.

    ``num_flows`` transfers between random machine pairs start 10 ms
    apart, so hundreds pile up and contend; every start/finish forces a
    settle + recompute, which is exactly the hot path being measured.
    """
    rng = RandomStreams(seed).stream("churn")
    sim = Simulator()
    fabric = Fabric(sim)
    for index in range(num_machines):
        fabric.attach(f"m{index}", 100.0)

    def spawn() -> None:
        src = rng.randrange(num_machines)
        dst = (src + 1 + rng.randrange(num_machines - 1)) % num_machines
        flow = fabric.transfer(
            f"m{src}", f"m{dst}", rng.uniform(10.0, 1000.0), tag="churn"
        )
        flow.done._defuse()

    for index in range(num_flows):
        sim.call_at(index * 0.01, spawn)
    return sim


def churn_events_per_sec(
    num_machines: int,
    num_flows: int,
    seed: int = 0,
) -> float:
    """Run one churn workload; return DES events fired per wall second."""
    sim = build_churn_workload(num_machines, num_flows, seed)
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return sim.events_processed / wall if wall > 0 else float("inf")


def bench_churn(
    num_machines: int = 32, num_flows: int = 2000, repeats: int = 3
) -> BenchResult:
    best = max(
        churn_events_per_sec(num_machines, num_flows) for _ in range(max(1, repeats))
    )
    return BenchResult(
        name="churn",
        metric="events_per_sec",
        value=best,
        params={
            "num_machines": num_machines,
            "num_flows": num_flows,
            "repeats": repeats,
        },
    )


def bench_churn_1k(
    num_machines: int = 1024, num_flows: int = 4000, repeats: int = 1
) -> BenchResult:
    """Fleet-scale churn: 1024 NICs.

    The workload the nightly 1k-machine chaos campaign stresses — wide
    fabric, hundreds of concurrent flows — so settling a long active-flow
    list is on the measured path.
    """
    best = max(
        churn_events_per_sec(num_machines, num_flows) for _ in range(max(1, repeats))
    )
    return BenchResult(
        name="churn_1k",
        metric="events_per_sec",
        value=best,
        params={
            "num_machines": num_machines,
            "num_flows": num_flows,
            "repeats": repeats,
        },
    )


def build_multihop_workload(
    num_racks: int,
    rack_size: int,
    num_flows: int,
    oversubscription: float = 4.0,
    seed: int = 0,
) -> Simulator:
    """Churn over a rack topology: cross-rack flows ride shared uplinks.

    Same staggered-start shape as :func:`build_churn_workload`, but the
    fabric routes through a :class:`RackTopology`, so most flows cross
    two extra (oversubscribed) links and every start/finish dirties the
    shared uplinks — the multi-hop settle path under churn.
    """
    rng = RandomStreams(seed).stream("multihop-churn")
    num_machines = num_racks * rack_size
    sim = Simulator()
    topology = RackTopology.homogeneous(
        num_racks, rack_size, 100.0, oversubscription=oversubscription
    )
    fabric = Fabric(sim, topology=topology)
    for index in range(num_machines):
        fabric.attach(f"m{index}", 100.0, position=Position(rack=index // rack_size))

    def spawn() -> None:
        src = rng.randrange(num_machines)
        dst = (src + 1 + rng.randrange(num_machines - 1)) % num_machines
        flow = fabric.transfer(
            f"m{src}", f"m{dst}", rng.uniform(10.0, 1000.0), tag="multihop"
        )
        flow.done._defuse()

    for index in range(num_flows):
        sim.call_at(index * 0.01, spawn)
    return sim


def multihop_events_per_sec(
    num_racks: int,
    rack_size: int,
    num_flows: int,
    oversubscription: float = 4.0,
    seed: int = 0,
) -> float:
    """Run one multi-hop churn workload; return DES events per wall second."""
    sim = build_multihop_workload(
        num_racks, rack_size, num_flows, oversubscription, seed
    )
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return sim.events_processed / wall if wall > 0 else float("inf")


def bench_fabric_multihop(
    num_racks: int = 8,
    rack_size: int = 4,
    num_flows: int = 2000,
    oversubscription: float = 4.0,
    repeats: int = 3,
) -> BenchResult:
    best = max(
        multihop_events_per_sec(num_racks, rack_size, num_flows, oversubscription)
        for _ in range(max(1, repeats))
    )
    return BenchResult(
        name="fabric_multihop",
        metric="events_per_sec",
        value=best,
        params={
            "num_racks": num_racks,
            "rack_size": rack_size,
            "num_flows": num_flows,
            "oversubscription": oversubscription,
            "repeats": repeats,
        },
    )


def bench_simulate(horizon_days: float = 0.25, repeats: int = 1) -> BenchResult:
    """End-to-end wall time: GEMINI policy, Poisson failures, one seed."""
    from repro.experiments.scenario import Scenario

    scenario = Scenario(
        name="bench-simulate",
        policy="gemini",
        failures_per_day=8.0,
        horizon_days=horizon_days,
        seeds=(0,),
        num_standby=2,
    )
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        scenario.run()
        best = min(best, time.perf_counter() - started)
    return BenchResult(
        name="simulate",
        metric="wall_seconds",
        value=best,
        params={"horizon_days": horizon_days, "policy": "gemini", "repeats": repeats},
    )


def bench_frontier_churn(horizon_days: float = 0.25, repeats: int = 1) -> BenchResult:
    """Wall time for a frontier policy (TierCheck) under Poisson failures.

    TierCheck keeps GEMINI's coalescable ``on_iteration``, so its macro
    windows must survive the SSD loop's periodic interrupts; a frontier
    policy that accidentally disables macro-tick coalescing (or an SSD
    loop that interrupts every tick) blows straight through the
    wall-seconds ceiling in ``bench_baseline.json``.
    """
    from repro.experiments.scenario import Scenario

    scenario = Scenario(
        name="bench-frontier-churn",
        policy="tiercheck",
        failures_per_day=8.0,
        horizon_days=horizon_days,
        seeds=(0,),
        num_standby=2,
    )
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        scenario.run()
        best = min(best, time.perf_counter() - started)
    return BenchResult(
        name="frontier_churn",
        metric="wall_seconds",
        value=best,
        params={
            "horizon_days": horizon_days,
            "policy": "tiercheck",
            "repeats": repeats,
        },
    )


def bench_sweep(horizon_days: float = 0.05, repeats: int = 1) -> BenchResult:
    """Wall time for a standard 4-point sweep grid (single worker, no cache)."""
    from repro.experiments import Scenario, SweepRunner

    def grid() -> List[Scenario]:
        return [
            Scenario(
                name=f"bench-{policy}-r{rate:g}",
                policy=policy,
                failures_per_day=rate,
                horizon_days=horizon_days,
                seeds=(0, 1),
                num_standby=1,
            )
            for policy in ("gemini", "strawman")
            for rate in (0.0, 16.0)
        ]

    best = float("inf")
    for _ in range(max(1, repeats)):
        runner = SweepRunner(grid(), workers=1)
        started = time.perf_counter()
        runner.run()
        best = min(best, time.perf_counter() - started)
    return BenchResult(
        name="sweep",
        metric="wall_seconds",
        value=best,
        params={"horizon_days": horizon_days, "scenarios": 4, "repeats": repeats},
    )


# -- driver --------------------------------------------------------------------


class _BenchPoint:
    """Ad-hoc scenario stand-in so bench runs show up in fleet telemetry."""

    def __init__(self, name: str):
        self.name = f"bench-{name}"
        self.policy = "bench"


def _run_one(name: str, quick: bool, repeats: int) -> BenchResult:
    if name == "churn":
        if quick:
            return bench_churn(num_machines=16, num_flows=600, repeats=1)
        return bench_churn(repeats=repeats)
    if name == "churn_1k":
        if quick:
            return bench_churn_1k(num_flows=1500, repeats=1)
        return bench_churn_1k(repeats=max(1, min(repeats, 2)))
    if name == "fabric_multihop":
        if quick:
            return bench_fabric_multihop(
                num_racks=4, rack_size=4, num_flows=600, repeats=1
            )
        return bench_fabric_multihop(repeats=repeats)
    if name == "frontier_churn":
        return bench_frontier_churn(horizon_days=0.02 if quick else 0.25)
    if name == "simulate":
        return bench_simulate(horizon_days=0.02 if quick else 0.25)
    return bench_sweep(horizon_days=0.01 if quick else 0.05)


def run_benchmarks(
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    repeats: int = 3,
    emitter: Optional[Any] = None,
) -> List[BenchResult]:
    """Run the selected benchmarks; ``quick`` shrinks every workload.

    ``emitter`` (a :class:`repro.obs.fleet.TelemetryEmitter`) wraps each
    benchmark in fleet scenario events and logs the measured metric as a
    ``bench_result`` event — purely observational, results unchanged.
    """
    selected = tuple(only) if only else BENCH_NAMES
    unknown = sorted(set(selected) - set(BENCH_NAMES))
    if unknown:
        raise ValueError(f"unknown benchmarks {unknown}; choose from {list(BENCH_NAMES)}")
    results: List[BenchResult] = []
    for name in BENCH_NAMES:
        if name not in selected:
            continue
        if emitter is not None:
            with emitter.scenario_run(_BenchPoint(name)):
                result = _run_one(name, quick, repeats)
            emitter.emit(
                "bench_result",
                scenario=f"bench-{name}",
                metric=result.metric,
                value=result.value,
            )
        else:
            result = _run_one(name, quick, repeats)
        results.append(result)
    return results


def profile_benchmark(
    name: str,
    quick: bool = False,
    repeats: int = 1,
    out_dir: Optional[pathlib.Path] = None,
) -> "tuple[BenchResult, Optional[pathlib.Path], str]":
    """Run one benchmark under cProfile.

    Returns the measurement, the path of the ``PROFILE_<name>.pstats``
    dump (``None`` when ``out_dir`` is not given), and a pstats report of
    the top 25 functions by cumulative time.  Profiled numbers carry
    interpreter overhead, so the result is for reading, not for gating —
    callers must not feed it to :func:`check_regression` or append it to
    the trajectory files.
    """
    import cProfile
    import io
    import pstats

    if name not in BENCH_NAMES:
        raise ValueError(f"unknown benchmark {name!r}; choose from {list(BENCH_NAMES)}")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = _run_one(name, quick, repeats)
    finally:
        profiler.disable()
    dump_path: Optional[pathlib.Path] = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_path = out_dir / f"PROFILE_{name}.pstats"
        profiler.dump_stats(dump_path)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(25)
    return result, dump_path, stream.getvalue()


def write_bench_row(out_dir: pathlib.Path, result: BenchResult) -> pathlib.Path:
    """Append one row to ``BENCH_<name>.json`` (created if missing)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{result.name}.json"
    rows: List[Dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"existing {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, list):
            raise ValueError(f"existing {path} must hold a JSON array of rows")
        rows = loaded
    rows.append(result.row())
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return path


def check_regression(
    results: Sequence[BenchResult],
    baseline_path: str,
    max_regression: float = 0.30,
) -> List[str]:
    """Compare results against a committed baseline; return failure messages.

    The baseline file maps ``"<name>_<metric>"`` to the reference number,
    e.g. ``{"churn_events_per_sec": 2300.0}``.  A result regresses when it
    is worse than the reference by more than ``max_regression`` (relative),
    in the direction that matters for its metric.  Benchmarks without a
    baseline entry are skipped, so the gate only tightens deliberately.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(f"max_regression must be in [0, 1), got {max_regression}")
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    if not isinstance(baseline, dict):
        raise ValueError(f"baseline {baseline_path} must be a JSON object")
    failures: List[str] = []
    for result in results:
        reference = baseline.get(f"{result.name}_{result.metric}")
        if not isinstance(reference, (int, float)):
            continue
        if result.higher_is_better:
            floor = reference * (1.0 - max_regression)
            if result.value < floor:
                failures.append(
                    f"{result.name}: {result.metric} {result.value:,.1f} is below "
                    f"{floor:,.1f} (baseline {reference:,.1f} - {max_regression:.0%})"
                )
        else:
            ceiling = reference * (1.0 + max_regression)
            if result.value > ceiling:
                failures.append(
                    f"{result.name}: {result.metric} {result.value:,.3f} is above "
                    f"{ceiling:,.3f} (baseline {reference:,.3f} + {max_regression:.0%})"
                )
    return failures

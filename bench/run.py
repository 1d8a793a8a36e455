"""Run the repository benchmark: four user workloads, timed end to end.

    python3 bench/run.py [--seed S] [--trace] [--quick] [--out FILE]
    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1

Without ``--workload`` every workload runs, each in its own fresh
process, one after another.  With it, one workload runs in this process
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of
``layers.py`` from repeats run under ``cProfile``.  Times are in
reference-host seconds (``calibrate.py``); raw seconds are printed
beside them.  ``--out FILE`` appends the run's full record (samples,
fingerprints, extra metrics) to a JSON list that ``compare.py`` reads.

The benchmark imports ``repro`` from ``src/`` next to this directory
and exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import calibrate
import layers
from workloads import WORKLOADS, Digest, Plan, fingerprint

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"
SRC_DIR = ROOT / "src"
PACKAGE_DIR = SRC_DIR / "repro"

#: end-to-end metrics: (name, unit, bound as a share of the parent median).
END_TO_END = (
    ("run_s", "s", 0.15),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.20),
)

#: seconds of timed repeats per run, unless --seconds says otherwise.
DEFAULT_SECONDS = 20
#: untraced repeats per run, whatever --seconds says.
MIN_REPEATS = 3
#: traced repeats per --trace 1 run (counts must agree between them).
MIN_TRACED = 2
#: fresh interpreters whose import time is measured for setup_s.
IMPORT_SAMPLES = 5
#: a workload process that runs longer than this is stopped.
CHILD_TIMEOUT_S = 170


class Repeats:
    """Runs a plan's ops repeatedly; an op fails on an exception, on a
    problem in its output, or when its output differs from the first
    repeat's."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.fingerprints: List[Optional[str]] = [None] * len(plan.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(
        self,
        probe: calibrate.SpeedProbe,
        profiler: Optional[cProfile.Profile] = None,
    ) -> Dict[str, Any]:
        """One repeat; returns build/run seconds net of ``probe``'s loops,
        and the digests of the ops that passed."""
        build_s = run_s = 0.0
        digests: List[Optional[Digest]] = []
        for index, op in enumerate(self.plan.ops):
            self.attempted += 1
            try:
                if profiler is not None:
                    profiler.enable()
                try:
                    marks = [(time.perf_counter(), probe.spent)]
                    built = op.build()
                    marks.append((time.perf_counter(), probe.spent))
                    output = op.run(built)
                    marks.append((time.perf_counter(), probe.spent))
                finally:
                    if profiler is not None:
                        profiler.disable()
                (t0, p0), (t1, p1), (t2, p2) = marks
                build_s += (t1 - t0) - (p1 - p0)
                run_s += (t2 - t1) - (p2 - p1)
                digest = op.digest(output)
                printed = fingerprint(digest.payload)
            except Exception as exc:  # an op that raises is a failed op
                digest = Digest(None, [f"raised {type(exc).__name__}: {exc}"])
                printed = None
            finally:
                built = output = None
            if self.fingerprints[index] is None:
                self.fingerprints[index] = printed
            elif printed is not None and printed != self.fingerprints[index]:
                digest.problems.append("output differs from the first repeat")
            if digest.problems:
                self.failed += 1
                self.problems.extend(f"{op.label}: {p}" for p in digest.problems)
            digests.append(None if digest.problems else digest)
        return {"build_s": build_s, "run_s": run_s, "digests": digests}

    def summary(self, digests: Sequence[Optional[Digest]]) -> Dict[str, float]:
        if any(digest is None for digest in digests):
            return {}
        return self.plan.summarize(digests)

    def fingerprint(self) -> str:
        joined = "\n".join(str(printed) for printed in self.fingerprints)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def timed(
    one_repeat: Callable[[calibrate.SpeedProbe], Dict[str, Any]],
    seconds: float,
    at_least: int,
) -> List[Dict[str, Any]]:
    """Repeat until ``seconds`` would be exceeded (at least ``at_least``
    times), sampling host speed before, during and after every repeat.

    Each sample's ``factor`` converts its raw seconds to reference-host
    seconds."""
    samples: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        before = calibrate.calibration_loop()
        with calibrate.SpeedProbe() as probe:
            began = time.perf_counter()
            sample = one_repeat(probe)
            took = time.perf_counter() - began
        loops = [before, *probe.samples, calibrate.calibration_loop()]
        sample["factor"] = calibrate.speed_factor(loops)
        samples.append(sample)
        if len(samples) >= at_least and time.perf_counter() - started + took > seconds:
            return samples


def time_import(name: str, seed: int, quick: bool) -> float:
    """Calibrated seconds a fresh interpreter spends in ``plan(seed)``:
    importing the workload's modules and building its ops.  The child
    samples its own host speed, since it may run on another core."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC_DIR)!r}]\n"
        "import calibrate, workloads\n"
        "before = calibrate.calibration_loop()\n"
        "with calibrate.SpeedProbe() as probe:\n"
        "    started = time.perf_counter()\n"
        f"    workloads.WORKLOADS[{name!r}]({seed}, {quick})\n"
        "    took = time.perf_counter() - started - probe.spent\n"
        "loops = [before, *probe.samples, calibrate.calibration_loop()]\n"
        "print(took * calibrate.speed_factor(loops))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in PACKAGE_DIR.rglob("*.py")
    )


def spread(values: Sequence[float]) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "samples": list(values),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """Run one workload in this process; return its full record."""
    imports = [] if trace else [
        time_import(name, seed, quick) for _ in range(1 if quick else IMPORT_SAMPLES)
    ]
    plan = WORKLOADS[name](seed, quick)
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {PACKAGE_DIR}")
    repeats = Repeats(plan)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "src_lines": src_lines(),
    }
    if trace:
        record.update(measure_layers(repeats, seconds))
    else:
        samples = timed(repeats.run, seconds, 1 if quick else MIN_REPEATS)
        run = spread([s["run_s"] * s["factor"] for s in samples])
        build = spread([s["build_s"] * s["factor"] for s in samples])
        setup = spread(imports)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["metrics"] = {
            "run_s": dict(
                run,
                unit="s",
                raw=statistics.median(s["run_s"] for s in samples),
                raw_samples=[s["run_s"] for s in samples],
            ),
            "setup_s": {
                "value": setup["value"] + build["value"],
                "unit": "s",
                "import": setup,
                "build": build,
            },
            "peak_rss_mb": {"value": rss, "unit": "MiB", "n": 1},
        }
        record["extra"] = repeats.summary(samples[0]["digests"])
    record.update(
        correct=repeats.failed == 0 and not record.get("count_mismatch"),
        attempted=repeats.attempted,
        failed=repeats.failed,
        problems=repeats.problems,
        fingerprint=repeats.fingerprint(),
    )
    return record


def measure_layers(repeats: Repeats, seconds: float) -> Dict[str, Any]:
    """One untraced warm-up repeat, then traced repeats under cProfile."""
    from repro.sim.engine import events_tally

    keys = layers.resolve_counts()
    warm = timed(repeats.run, 0.0, 1)[0]

    def traced(probe: calibrate.SpeedProbe) -> Dict[str, Any]:
        profiler = cProfile.Profile()
        events = events_tally()
        with layers.probes() as tally:
            sample = repeats.run(probe, profiler)
        stats = pstats.Stats(profiler).stats
        counts = layers.call_counts(stats, keys)
        counts["sim.events"] = events_tally() - events
        counts.update(tally)
        counts["chaos.audited_plans"] = sum(
            d.facts.get("audited_plans", 0) for d in sample["digests"] if d is not None
        )
        sample["counts"] = counts
        sample["self_s"] = layers.layer_self_seconds(
            stats, PACKAGE_DIR, exclude=calibrate.__file__
        )
        return sample

    samples = timed(traced, seconds - warm["run_s"] - warm["build_s"], MIN_TRACED)
    counts = samples[0]["counts"]
    mismatched = sorted(
        name for s in samples[1:] for name in counts if s["counts"][name] != counts[name]
    )
    summary = repeats.summary(samples[0]["digests"])
    values: Dict[str, float] = {}
    for layer in layers.LAYER_NAMES:
        values[f"{layer}.self_s"] = statistics.median(
            s["self_s"][layer] * s["factor"] for s in samples
        )
    values.update((name, float(counts[name])) for name in layers.CALL_COUNTS)
    values["sim.events"] = float(counts["sim.events"])
    sim_hours = counts["sim_seconds"] / 3600.0
    values["sim.events_per_sim_h"] = counts["sim.events"] / sim_hours if sim_hours else 0.0
    values["policy.hook_calls"] = float(counts["policy.hook_calls"])
    values["core.recovery.cpu_frac"] = (
        counts["cpu_recoveries"] / counts["recoveries"] if counts["recoveries"] else 0.0
    )
    uploads = counts["uploads.published"] + counts["uploads.aborted"]
    values["storage.aborted_frac"] = counts["uploads.aborted"] / uploads if uploads else 0.0
    values["chaos.audited_plans"] = float(counts["chaos.audited_plans"])
    values["experiments.eq1_gap_pts"] = summary.get("eq1_gap_pts", 0.0)
    units = dict(layers.PER_LAYER_METRICS)
    untraced = warm["run_s"] * warm["factor"]
    traced_run = statistics.median(s["run_s"] * s["factor"] for s in samples)
    return {
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name, _unit in layers.PER_LAYER_METRICS
        },
        "counts": counts,
        "traced_repeats": len(samples),
        "trace_overhead": traced_run / untraced if untraced else 0.0,
        "count_mismatch": mismatched,
        "extra": summary,
    }


def result_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }
    )


def render(record: Dict[str, Any]) -> str:
    """Human-readable lines: every metric with its unit, count and range."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  "
        f"{'traced' if record['trace'] else 'untraced'}"
        f"{'  quick' if record['quick'] else ''}"
    ]
    metrics = record["metrics"]
    if not record["trace"]:
        run, setup = metrics["run_s"], metrics["setup_s"]
        lines.append(
            f"  run_s        {run['value']:.4f} s   n={run['n']} "
            f"min {run['min']:.4f} max {run['max']:.4f}  (raw median {run['raw']:.4f} s)"
        )
        for part in ("import", "build"):
            got = setup[part]
            lines.append(
                f"  setup_s.{part:<6} {got['value']:.4f} s   n={got['n']} "
                f"min {got['min']:.4f} max {got['max']:.4f}"
            )
        lines.append(f"  setup_s      {setup['value']:.4f} s")
        lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MiB")
        for name, value in sorted(record["extra"].items()):
            lines.append(f"  {name}  {value:.4f}")
    else:
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in layers.LAYER_NAMES)
        for name, unit in layers.PER_LAYER_METRICS:
            value = metrics[name]["value"]
            if name.endswith(".self_s"):
                share = value / total if total else 0.0
                lines.append(f"  {name:<26} {value:10.4f} {unit:<5} {share:6.1%}")
            elif unit == "count":
                lines.append(f"  {name:<26} {int(value):10d} {unit}")
            else:
                lines.append(f"  {name:<26} {value:10.4f} {unit}")
        lines.append(
            f"  trace_overhead {record['trace_overhead']:.2f}x over "
            f"{record['traced_repeats']} traced repeats"
        )
        if record["count_mismatch"]:
            lines.append(f"  COUNTS DIFFER between traced repeats: {record['count_mismatch']}")
    lines.append(
        f"  failed_frac  {record['failed'] / record['attempted']:.4f} "
        f"({record['failed']} of {record['attempted']} ops)"
    )
    lines.extend(f"  FAILED {problem}" for problem in record["problems"][:20])
    lines.append(f"  fingerprint  {record['fingerprint']}")
    lines.append(f"  src_lines    {record['src_lines']} (context)")
    return "\n".join(lines)


def append_record(path: pathlib.Path, record: Dict[str, Any]) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Every workload (and, with --trace, its traced run) in a fresh process."""
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.quick:
                command.append("--quick")
            if args.out:
                command += ["--out", str(args.out)]
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            lines = done.stdout.rstrip("\n").splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"== {name}: exited with status {done.returncode}")
                all_correct = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            all_correct &= json.loads(lines[-1])["correct"]
    return 0 if all_correct else 1


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from cProfile repeats",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small inputs and one repeat (for tests)"
    )
    parser.add_argument("--out", type=pathlib.Path, help="append records to this JSON list")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"bench: no repro package at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC_DIR))
    seconds = 0.0 if args.quick else args.seconds
    record = measure(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    print(render(record))
    if args.out:
        append_record(args.out, record)
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare benchmark records of a parent commit and a change.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a JSON list of records written by ``run.py --out``.  The
i-th parent record of a workload is paired with the i-th change record
of that workload, so run the two sides alternately (parent, change,
change, parent, ...) at the same seeds, at least ten pairs.

One row per workload and metric, with a verdict:

- ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them, and the medians differ by more than the parent's interquartile
  range;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: fewer than 10 pairs, or the parent's own spread is
  wider than the bound and not every change run beats every parent run;
- ``within bound``: otherwise.

Per-layer counts are exact, so they are compared seed by seed
(``same`` or ``changed``).  Differing output fingerprints at the same
seed are flagged: the change altered simulated output.  ``src_lines``
is printed as context and never gated.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
from run import END_TO_END

MIN_PAIRS = 10
WIN_RATE = 0.9

#: metrics gated by compare.py only: name -> absolute bound (lower is better).
ABSOLUTE_BOUNDS = {"failed_frac": 0.0, "eq1_gap_pts": 0.25}


def load(paths: Sequence[pathlib.Path]) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(json.loads(path.read_text()))
    return records


def by_workload(records, trace: int) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in records:
        if record["trace"] == trace:
            grouped[record["workload"]].append(record)
    return grouped


def end_to_end_values(record: Dict[str, Any]) -> Dict[str, float]:
    values = {name: record["metrics"][name]["value"] for name, _unit, _bound in END_TO_END}
    values["failed_frac"] = record["failed"] / record["attempted"]
    if "eq1_gap_pts" in record["extra"]:
        values["eq1_gap_pts"] = record["extra"]["eq1_gap_pts"]
    return values


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: Optional[float],
    absolute: bool = False,
) -> str:
    """The rule above, for a lower-is-better metric; ``bound=None`` means
    the metric has no bound (per-layer times)."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)} < {MIN_PAIRS} pairs)"
    base = statistics.median(parent)
    worse_by = statistics.median(change) - base
    quartiles = statistics.quantiles(parent, n=4)
    iqr = quartiles[2] - quartiles[0]
    wins = sum(1 for p, c in pairs if c < p)
    if wins >= WIN_RATE * len(pairs) and -worse_by > iqr:
        return "improved"
    if bound is None:
        return "unresolved" if worse_by > iqr else "no gain shown"
    limit = bound if absolute else bound * abs(base)
    if worse_by > limit:
        return "regressed"
    if iqr > limit and not max(change) < min(parent):
        return "unresolved (spread wider than bound)"
    return "within bound"


def describe(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}" if values else "-"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def table(rows: List[Tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows
    )


def compare(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> str:
    bounds = {name: (bound, False) for name, _unit, bound in END_TO_END}
    bounds.update((name, (bound, True)) for name, bound in ABSOLUTE_BOUNDS.items())
    rows = [("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
             "change", "wins", "verdict")]
    parent_runs, change_runs = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_values = [end_to_end_values(r) for r in parent_runs.get(workload, [])]
        c_values = [end_to_end_values(r) for r in change_runs.get(workload, [])]
        for metric, (bound, absolute) in bounds.items():
            p = [v[metric] for v in p_values if metric in v]
            c = [v[metric] for v in c_values if metric in v]
            if not p or not c:
                continue
            rows.append(_row(workload, metric, p, c, verdict(p, c, bound, absolute)))
    parent_traced, change_traced = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(parent_traced) & set(change_traced)):
        for metric, _unit in layers.PER_LAYER_METRICS:
            p = [r["metrics"][metric]["value"] for r in parent_traced[workload]]
            c = [r["metrics"][metric]["value"] for r in change_traced[workload]]
            if metric.endswith(".self_s"):
                rows.append(_row(workload, metric, p, c, verdict(p, c, None)))
            else:
                rows.append(_row(workload, metric, p, c, _count_verdict(
                    parent_traced[workload], change_traced[workload], metric)))
    lines = [table(rows), ""]
    lines += _fingerprints(parent, change)
    lines.append(
        f"src_lines (context, not gated): parent {_first(parent, 'src_lines')}, "
        f"change {_first(change, 'src_lines')}"
    )
    return "\n".join(lines)


def _row(workload, metric, p, c, result) -> Tuple[str, ...]:
    base = statistics.median(p)
    delta = (statistics.median(c) - base) / base if base else 0.0
    wins = sum(1 for a, b in zip(p, c) if b < a)
    return (workload, metric, describe(p), describe(c), f"{delta:+.1%}",
            f"{wins}/{min(len(p), len(c))}", result)


def _count_verdict(parent_records, change_records, metric) -> str:
    """Counts repeat exactly, so compare them at equal seeds."""
    parent_at = {r["seed"]: r["metrics"][metric]["value"] for r in parent_records}
    change_at = {r["seed"]: r["metrics"][metric]["value"] for r in change_records}
    seeds = sorted(set(parent_at) & set(change_at))
    if not seeds:
        return "no common seed"
    changed = [s for s in seeds if parent_at[s] != change_at[s]]
    return f"changed at seeds {changed}" if changed else "same"


def _fingerprints(parent, change) -> List[str]:
    lines = []
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        p = {(r["seed"], r["quick"]): r["fingerprint"] for r in parent if r["workload"] == workload}
        c = {(r["seed"], r["quick"]): r["fingerprint"] for r in change if r["workload"] == workload}
        differ = sorted(key[0] for key in set(p) & set(c) if p[key] != c[key])
        if differ:
            lines.append(f"FINGERPRINT DIFFERS: {workload} at seeds {differ} "
                         "(the change alters simulated output)")
        else:
            lines.append(f"fingerprints identical: {workload}")
    return lines


def _first(records, key):
    return records[0][key] if records else "-"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, nargs="+", required=True)
    parser.add_argument("--change", type=pathlib.Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    print(compare(load(args.parent), load(args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Chaos campaign runner: grids, presets, and the violation report.

A campaign fans :class:`~repro.chaos.scenario.ChaosScenario` points
(policies x failure models x seeds) through the experiments layer's
:class:`~repro.experiments.sweep.SweepRunner`, so chaos runs inherit its
guarantees — per-row JSON caching keyed on the scenario hash, resumable
execution, and hash-sorted byte-identical JSONL independent of worker
count.  The campaign's verdict is the :class:`CampaignReport`: per-policy
survival statistics plus every recovery invariant the auditor saw
violated (a passing campaign reports zero).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.scenario import ChaosScenario
from repro.experiments.sweep import SweepRunner
from repro.harness.format import render_table

__all__ = ["CAMPAIGN_PRESETS", "CampaignReport", "chaos_grid", "run_campaign"]


def chaos_grid(
    policies: Sequence[str] = ("gemini", "highfreq", "strawman"),
    models: Sequence[str] = ("correlated", "adversarial"),
    seeds: Tuple[int, ...] = (0, 1, 2),
    *,
    num_machines: int = 16,
    failures_per_day: float = 8.0,
    domain_size: int = 2,
    spare_one: bool = False,
    degradations: Tuple[str, ...] = (),
    degradation_events_per_day: float = 0.0,
    horizon_days: float = 0.25,
    num_standby: int = 2,
    sanitize: bool = False,
    extra_cells: Sequence[Dict[str, Any]] = (),
) -> List[ChaosScenario]:
    """The standard campaign grid: one scenario per policy x failure model.

    ``extra_cells`` appends off-grid scenarios: each dict overrides the
    grid's shared defaults field-by-field (it must at least carry
    ``name`` and ``policy``).  Presets use this for cells that do not fit
    the policy x model cross product — e.g. the rack-failure cell, which
    needs a specific cluster topology.
    """
    base: Dict[str, Any] = {
        "num_machines": num_machines,
        "failures_per_day": failures_per_day,
        "domain_size": domain_size,
        "spare_one": spare_one,
        "degradations": degradations,
        "degradation_events_per_day": degradation_events_per_day,
        "horizon_days": horizon_days,
        "seeds": tuple(seeds),
        "num_standby": num_standby,
        "sanitize": sanitize,
    }
    grid = [
        ChaosScenario(
            name=f"{policy}-{model}",
            policy=policy,
            failure_model=model,
            **base,
        )
        for policy in policies
        for model in models
    ]
    grid.extend(ChaosScenario(**{**base, **dict(cell)}) for cell in extra_cells)
    return grid


#: named campaign presets: keyword arguments for :func:`chaos_grid`.
#: ``ci`` is small enough for a pull-request gate; ``nightly`` widens the
#: matrix (all policies, the empirical model, every degradation injector)
#: for the scheduled run.
CAMPAIGN_PRESETS: Dict[str, Dict[str, Any]] = {
    "quick": {
        "policies": ("gemini", "highfreq"),
        "models": ("correlated", "adversarial"),
        "seeds": (0, 1, 2),
        "horizon_days": 0.25,
    },
    "ci": {
        "policies": ("gemini", "highfreq"),
        "models": ("correlated", "adversarial"),
        "seeds": (0, 1, 2),
        "horizon_days": 0.25,
        # Off-grid cell: down *real racks* of an oversubscribed rack
        # topology, with the topology-aware placement that is supposed to
        # survive exactly that.  The auditor's I3/I4 invariants must hold
        # here like everywhere else.  The agents cell runs the paper's
        # own detection path (§3.2 heartbeat leases, root scans and
        # election) under I1-I6 and the I8 detection window.
        "extra_cells": (
            {
                "name": "gemini-rack-failure",
                "policy": "gemini",
                "failure_model": "correlated",
                "cluster": "a3mega-rack4x4",
                "num_machines": 16,
                "domain_size": 4,
                "domain_source": "topology",
                "policy_kwargs": (("placement_strategy", "topology"),),
            },
            {
                "name": "gemini-agents-correlated",
                "policy": "gemini",
                "failure_model": "correlated",
                "policy_kwargs": (("use_agents", True),),
            },
        ),
    },
    # The PR-gate frontier gauntlet: the ci grid plus one cell per
    # frontier policy, each paired with the failure model that stresses
    # its distinguishing mechanism — Checkmate's mid-iteration commits
    # under correlated bursts, TierCheck's SSD tier under the empirical
    # trace, sparse-MoE's dirty-slice accounting under correlated
    # failures, and REFT's stage-aligned placement against the
    # adversarial injector (which reads the placement and aims for it).
    "frontier": {
        "policies": ("gemini", "highfreq"),
        "models": ("correlated", "adversarial"),
        "seeds": (0, 1, 2),
        "horizon_days": 0.25,
        "extra_cells": (
            {
                "name": "checkmate-correlated",
                "policy": "checkmate",
                "failure_model": "correlated",
            },
            {
                "name": "tiercheck-empirical",
                "policy": "tiercheck",
                "failure_model": "empirical",
            },
            {
                "name": "sparse_moe-correlated",
                "policy": "sparse_moe",
                "failure_model": "correlated",
            },
            {
                "name": "reft-adversarial",
                "policy": "reft",
                "failure_model": "adversarial",
            },
        ),
    },
    "nightly": {
        "policies": (
            "gemini",
            "highfreq",
            "strawman",
            "checkmate",
            "tiercheck",
            "sparse_moe",
            "reft",
        ),
        "models": ("correlated", "adversarial", "empirical"),
        "seeds": (0, 1, 2, 3, 4),
        "horizon_days": 0.5,
        "degradations": ("bandwidth", "corruption", "straggler"),
        "degradation_events_per_day": 6.0,
    },
    # Fleet scale: the ci-preset failure mix scaled onto the 1024-machine
    # a3mega-fleet1k catalog spec (64 racks of 16, topology-aware
    # placement).  No base grid — every cell is
    # off-grid because each carries the full fleet shape; failure and
    # degradation rates scale with the machine count (64x the 16-machine
    # grids).  The nightly fleet-scale CI job runs this with --sanitize.
    "fleet": {
        "policies": (),
        "models": (),
        "extra_cells": (
            {
                "name": "gemini-fleet1k-rack",
                "policy": "gemini",
                "failure_model": "correlated",
                "cluster": "a3mega-fleet1k",
                "num_machines": 1024,
                "failures_per_day": 128.0,
                "domain_size": 16,
                "domain_source": "topology",
                "policy_kwargs": (("placement_strategy", "topology"),),
                "num_standby": 8,
                "seeds": (0, 1, 2),
                "horizon_days": 0.25,
            },
            {
                "name": "gemini-fleet1k-degraded",
                "policy": "gemini",
                "failure_model": "correlated",
                "cluster": "a3mega-fleet1k",
                "num_machines": 1024,
                "failures_per_day": 128.0,
                "domain_size": 16,
                "domain_source": "topology",
                "policy_kwargs": (("placement_strategy", "topology"),),
                "num_standby": 8,
                "seeds": (0, 1, 2),
                "horizon_days": 0.25,
                "degradations": ("bandwidth", "straggler"),
                "degradation_events_per_day": 96.0,
            },
            {
                "name": "tiercheck-fleet1k-rack",
                "policy": "tiercheck",
                "failure_model": "correlated",
                "cluster": "a3mega-fleet1k",
                "num_machines": 1024,
                "failures_per_day": 128.0,
                "domain_size": 16,
                "domain_source": "topology",
                "policy_kwargs": (("placement_strategy", "topology"),),
                "num_standby": 8,
                "seeds": (0, 1, 2),
                "horizon_days": 0.25,
            },
            {
                "name": "reft-fleet1k-rack",
                "policy": "reft",
                "failure_model": "correlated",
                "cluster": "a3mega-fleet1k",
                "num_machines": 1024,
                "failures_per_day": 128.0,
                "domain_size": 16,
                "domain_source": "topology",
                "policy_kwargs": (
                    ("tensor_parallel", 2),
                    ("pipeline_parallel", 2),
                ),
                "num_standby": 8,
                "seeds": (0, 1, 2),
                "horizon_days": 0.25,
            },
        ),
    },
}


@dataclass
class CampaignReport:
    """Aggregated outcome of one chaos campaign.

    ``fleet`` (optional) is the telemetry-plane summary dict from
    :meth:`repro.obs.fleet.FleetAggregator.summary` — wall-clock
    observations *about* the run (latency, throughput, worker
    utilization), deliberately separate from ``rows``, which stay a pure
    function of the scenario grid.
    """

    rows: List[Dict[str, Any]] = field(default_factory=list)
    fleet: Optional[Dict[str, Any]] = None

    @property
    def total_violations(self) -> int:
        return sum(row["violation_count"] for row in self.rows)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def violations(self) -> List[Dict[str, Any]]:
        """Every violation across the campaign, tagged with its scenario."""
        found: List[Dict[str, Any]] = []
        for row in self.rows:
            for violation in row["violations"]:
                found.append(dict(violation, scenario=row["scenario"]))
        return found

    def policy_summary(self) -> List[Dict[str, Any]]:
        """Per-policy survival statistics, sorted by policy name."""
        grouped: Dict[str, Dict[str, Any]] = {}
        for row in self.rows:
            entry = grouped.setdefault(
                row["policy"],
                {
                    "policy": row["policy"],
                    "scenarios": 0,
                    "failures": 0,
                    "recoveries": 0,
                    "cpu_recoveries": 0,
                    "persistent_fallbacks": 0,
                    "violations": 0,
                    "_ratios": [],
                },
            )
            entry["scenarios"] += 1
            entry["failures"] += row["total_failures"]
            entry["recoveries"] += row["total_recoveries"]
            entry["cpu_recoveries"] += row["cpu_recoveries"]
            entry["persistent_fallbacks"] += row["persistent_fallbacks"]
            entry["violations"] += row["violation_count"]
            entry["_ratios"].append(row["mean_ratio"])
        summary = []
        for policy in sorted(grouped):
            entry = grouped[policy]
            ratios = entry.pop("_ratios")
            entry["mean_ratio"] = sum(ratios) / len(ratios)
            summary.append(entry)
        return summary

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "ok": self.ok,
            "total_violations": self.total_violations,
            "policy_summary": self.policy_summary(),
            "violations": self.violations(),
            "rows": self.rows,
        }
        # The fleet summary is observational (wall clock, utilization) and
        # run-dependent, so it only appears when telemetry was enabled —
        # reports from bare runs keep their deterministic bytes.
        if self.fleet is not None:
            doc["fleet"] = self.fleet
        return doc

    def to_json(self) -> str:
        """Canonical JSON (stable key order) for artifacts and diffs."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str) -> None:
        pathlib.Path(path).write_text(self.to_json())

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            render_table(
                self.rows,
                columns=[
                    "scenario",
                    "policy",
                    "failure_model",
                    "mean_ratio",
                    "total_failures",
                    "total_recoveries",
                    "cpu_recoveries",
                    "persistent_fallbacks",
                    "degradations_injected",
                    "violation_count",
                ],
                title="chaos campaign",
            ),
            "",
            render_table(
                self.policy_summary(),
                columns=[
                    "policy",
                    "scenarios",
                    "failures",
                    "recoveries",
                    "cpu_recoveries",
                    "persistent_fallbacks",
                    "mean_ratio",
                    "violations",
                ],
                title="per-policy summary",
            ),
        ]
        violations = self.violations()
        if violations:
            lines += [
                "",
                render_table(
                    violations,
                    columns=["scenario", "seed", "time", "invariant", "message"],
                    title=f"INVARIANT VIOLATIONS ({len(violations)})",
                ),
            ]
        else:
            lines += ["", "invariants: all recoveries audited clean (0 violations)"]
        if self.fleet is not None:
            from repro.obs.fleet import render_fleet_summary

            lines += ["", render_fleet_summary(self.fleet)]
        return "\n".join(lines)


def run_campaign(
    scenarios: Iterable[ChaosScenario],
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    out: Optional[str] = None,
    telemetry: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> CampaignReport:
    """Execute a chaos campaign; rows come back hash-sorted (deterministic).

    ``out`` additionally writes the raw rows as canonical JSONL (the same
    bytes regardless of ``workers`` or cache state).  ``telemetry`` (a
    :class:`repro.obs.fleet.FleetAggregator`) and ``progress`` ride the
    sweep's fail-open side channel; when given, the report carries the
    fleet summary, but ``rows`` and the ``out`` bytes never change.
    """
    runner = SweepRunner(
        list(scenarios),
        workers=workers,
        cache_dir=cache_dir,
        telemetry=telemetry,
        progress=progress,
    )
    if out is not None:
        rows = runner.write_jsonl(out)
    else:
        rows = runner.run()
    fleet_summary: Optional[Dict[str, Any]] = None
    if runner.telemetry is not None:
        try:
            fleet_summary = runner.telemetry.summary()
        except Exception:
            fleet_summary = None
    return CampaignReport(rows=rows, fleet=fleet_summary)

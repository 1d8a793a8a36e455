"""Chaos-campaign scenarios: a Scenario with the recovery auditor attached.

A :class:`ChaosScenario` is a :class:`repro.experiments.scenario.Scenario`
whose every seed runs with a
:class:`~repro.chaos.auditor.RecoveryInvariantAuditor` attached before
any injector, so the result row carries not just efficiency ratios but
the campaign's real product: the list of violated recovery invariants
(empty, if the system honors its Section 6 promises).  Fields,
validation, hashing, the injector dispatch and the seed loop are all
``Scenario``'s; this class adds only the campaign defaults (correlated
failures at 8/day, ``software_fraction`` 0.7, 0.25-day horizon), the
auditor and the audit columns.

The canonical form carries a marker, so a campaign point and a sweep
point with equal fields never share a cache row.
:class:`~repro.experiments.sweep.SweepRunner` runs both types, so chaos
campaigns get hash-sorted byte-identical JSONL and per-row caching for
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.chaos.auditor import RecoveryInvariantAuditor
from repro.experiments.scenario import Scenario

__all__ = ["ChaosScenario"]

#: canonical-form key that separates campaign points from sweep points.
_MARKER = "audited"


@dataclass(frozen=True)
class ChaosScenario(Scenario):
    """One chaos-campaign point: a Scenario run under the invariant auditor."""

    failures_per_day: float = 8.0
    software_fraction: float = 0.7
    horizon_days: float = 0.25
    failure_model: str = "correlated"

    def to_dict(self) -> Dict[str, Any]:
        return dict(super().to_dict(), **{_MARKER: True})

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosScenario":
        payload = dict(payload)
        payload.pop(_MARKER, None)
        return super().from_dict(payload)

    def build_system(self, seed: int):
        """Returns ``(system, auditor, injector, degraders)`` for one seed."""
        return self._build(seed)

    def _attach(self, system) -> RecoveryInvariantAuditor:
        return RecoveryInvariantAuditor(system)

    def _seed_columns(self, seed: int, result, auditor, injector, degraders) -> Dict[str, Any]:
        cpu_recoveries = sum(1 for record in result.recoveries if record.from_cpu_memory)
        return {
            "total_failures": auditor.audited_failures,
            "total_recoveries": len(result.recoveries),
            "cpu_recoveries": cpu_recoveries,
            "persistent_fallbacks": len(result.recoveries) - cpu_recoveries,
            "degradations_injected": sum(len(degrader.injected) for degrader in degraders),
            "audited_plans": auditor.audited_plans,
            "violations": [
                dict(violation.to_dict(), seed=seed) for violation in auditor.violations
            ],
        }

    def run(self) -> Dict[str, Any]:
        row = super().run()
        row["events_per_day"] = row.pop("failures_per_day")
        row["failure_model"] = self.failure_model
        row["degradations"] = list(self.degradations)
        row["violation_count"] = len(row["violations"])
        if self.domain_source != "random":
            row["domain_source"] = self.domain_source
        return row

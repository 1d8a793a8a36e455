"""Declarative chaos-campaign scenarios.

A :class:`ChaosScenario` is the chaos counterpart of
:class:`repro.experiments.scenario.Scenario`: a frozen, hashable
description of one campaign point — workload, policy, *hostile* failure
model (correlated / empirical / adversarial / poisson), optional
non-fail-stop degradations, and the seed set.  Each seed runs a full
:class:`~repro.core.kernel.SimulatedTrainingSystem` with a
:class:`~repro.chaos.auditor.RecoveryInvariantAuditor` attached, so the
result row carries not just efficiency ratios but the campaign's real
product: the list of violated recovery invariants (empty, if the system
honors its Section 6 promises).

``scenario_hash()`` feeds the same sweep/cache machinery as ordinary
scenarios; :class:`~repro.experiments.sweep.SweepRunner` duck-types the
interface (``scenario_hash``/``validate``/``name``/``run``), so chaos
campaigns get hash-sorted byte-identical JSONL and per-row caching for
free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Tuple

from repro.chaos.auditor import RecoveryInvariantAuditor
from repro.chaos.degrade import (
    BandwidthDegradationInjector,
    ReplicaCorruptionInjector,
    StragglerInjector,
)
from repro.chaos.models import (
    AdversarialFailureInjector,
    CorrelatedFailureInjector,
    EmpiricalFailureInjector,
)
from repro.cluster.instances import get_instance_type
from repro.experiments.registry import create_policy, get_policy
from repro.failures.injector import PoissonFailureInjector
from repro.sim import RandomStreams
from repro.training.models import get_model
from repro.units import DAY

__all__ = ["CHAOS_FAILURE_MODELS", "DEGRADATION_KINDS", "ChaosScenario"]

#: failure models a scenario may name.
CHAOS_FAILURE_MODELS: Tuple[str, ...] = (
    "adversarial",
    "correlated",
    "empirical",
    "poisson",
)

#: non-fail-stop degradation injectors a scenario may enable.
DEGRADATION_KINDS: Tuple[str, ...] = ("bandwidth", "corruption", "straggler")

_DEGRADER_CLASSES = {
    "bandwidth": BandwidthDegradationInjector,
    "corruption": ReplicaCorruptionInjector,
    "straggler": StragglerInjector,
}


@dataclass(frozen=True)
class ChaosScenario:
    """One chaos-campaign point: workload x policy x hostile failure model."""

    name: str
    policy: str
    failure_model: str = "correlated"
    model: str = "GPT-2 100B"
    instance: str = "p4d.24xlarge"
    num_machines: int = 16
    #: extra keyword arguments for the policy factory (normalized like
    #: :class:`repro.experiments.scenario.Scenario`).
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: cluster-wide failure events per day (all models except empirical,
    #: whose cadence comes from its inter-arrival table + time scale).
    events_per_day: float = 8.0
    #: fault-domain size for the correlated model.
    domain_size: int = 2
    #: adversarial model: spare one member of the targeted replica set.
    spare_one: bool = False
    #: poisson model only.
    software_fraction: float = 0.7
    #: empirical model: compresses logbook-scale gaps (hours-days) into
    #: short campaign horizons.
    empirical_time_scale: float = 0.02
    #: subset of :data:`DEGRADATION_KINDS` to run alongside the failures.
    degradations: Tuple[str, ...] = ()
    degradation_events_per_day: float = 0.0
    horizon_days: float = 0.25
    seeds: Tuple[int, ...] = (0, 1, 2)
    num_standby: int = 2
    #: arm the runtime determinism guard in every kernel (lint-sim's
    #: runtime half); part of the hash because it is part of the spec.
    sanitize: bool = False
    #: named :class:`repro.cluster.catalog.ClusterSpec` ("" = legacy flat
    #: homogeneous path).  Omitted from the canonical form when empty so
    #: pre-existing scenario hashes are unchanged.
    cluster: str = ""
    #: correlated model: where fault domains come from.  "random" draws
    #: them from the chaos-domains stream (the legacy behavior);
    #: "topology" downs *real racks* of the named ``cluster`` spec.
    domain_source: str = "random"

    def __post_init__(self):
        if isinstance(self.policy_kwargs, dict):
            normalized = tuple(sorted(self.policy_kwargs.items()))
        else:
            normalized = tuple(sorted(tuple(pair) for pair in self.policy_kwargs))
        object.__setattr__(self, "policy_kwargs", normalized)
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        object.__setattr__(
            self, "degradations", tuple(sorted(set(self.degradations)))
        )
        if self.failure_model not in CHAOS_FAILURE_MODELS:
            raise ValueError(
                f"unknown failure model {self.failure_model!r}; "
                f"valid choices: {', '.join(CHAOS_FAILURE_MODELS)}"
            )
        unknown = set(self.degradations) - set(DEGRADATION_KINDS)
        if unknown:
            raise ValueError(
                f"unknown degradation kinds {sorted(unknown)}; "
                f"valid choices: {', '.join(DEGRADATION_KINDS)}"
            )
        if self.num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {self.num_machines}")
        if self.events_per_day < 0:
            raise ValueError(
                f"events_per_day must be >= 0, got {self.events_per_day}"
            )
        if not 1 <= self.domain_size <= self.num_machines:
            raise ValueError(
                f"domain_size must be in [1, {self.num_machines}], "
                f"got {self.domain_size}"
            )
        if not 0.0 <= self.software_fraction <= 1.0:
            raise ValueError(
                f"software_fraction must be in [0, 1], got {self.software_fraction}"
            )
        if self.empirical_time_scale <= 0:
            raise ValueError(
                f"empirical_time_scale must be > 0, got {self.empirical_time_scale}"
            )
        if self.degradation_events_per_day < 0:
            raise ValueError(
                "degradation_events_per_day must be >= 0, "
                f"got {self.degradation_events_per_day}"
            )
        if self.degradations and self.degradation_events_per_day == 0:
            raise ValueError(
                "degradations are enabled but degradation_events_per_day is 0"
            )
        if self.horizon_days <= 0:
            raise ValueError(f"horizon_days must be > 0, got {self.horizon_days}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if self.num_standby < 0:
            raise ValueError(f"num_standby must be >= 0, got {self.num_standby}")
        if self.domain_source not in ("random", "topology"):
            raise ValueError(
                f'domain_source must be "random" or "topology", '
                f"got {self.domain_source!r}"
            )
        if self.domain_source == "topology":
            if not self.cluster:
                raise ValueError(
                    'domain_source="topology" needs a cluster= catalog name'
                )
            if self.failure_model != "correlated":
                raise ValueError(
                    'domain_source="topology" only applies to the '
                    f"correlated failure model, not {self.failure_model!r}"
                )

    # ---------------------------------------------------------- identity

    def policy_options(self) -> Dict[str, Any]:
        options = dict(self.policy_kwargs)
        options.setdefault("use_agents", False)
        return options

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; ``from_dict`` round-trips it."""
        payload = {
            "name": self.name,
            "policy": self.policy,
            "failure_model": self.failure_model,
            "model": self.model,
            "instance": self.instance,
            "num_machines": self.num_machines,
            "policy_kwargs": [list(pair) for pair in self.policy_kwargs],
            "events_per_day": self.events_per_day,
            "domain_size": self.domain_size,
            "spare_one": self.spare_one,
            "software_fraction": self.software_fraction,
            "empirical_time_scale": self.empirical_time_scale,
            "degradations": list(self.degradations),
            "degradation_events_per_day": self.degradation_events_per_day,
            "horizon_days": self.horizon_days,
            "seeds": list(self.seeds),
            "num_standby": self.num_standby,
            "sanitize": self.sanitize,
        }
        # New fields stay out of the canonical form at their defaults so
        # pre-existing chaos scenario digests are unchanged.
        if self.cluster:
            payload["cluster"] = self.cluster
        if self.domain_source != "random":
            payload["domain_source"] = self.domain_source
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosScenario":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown chaos scenario fields: {sorted(unknown)}")
        kwargs = dict(payload)
        if "policy_kwargs" in kwargs:
            kwargs["policy_kwargs"] = tuple(
                tuple(pair) for pair in kwargs["policy_kwargs"]
            )
        for key in ("seeds", "degradations"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def scenario_hash(self) -> str:
        """Stable digest of the canonical JSON form (cache/sort key)."""
        cached = getattr(self, "_hash_memo", None)
        if cached is None:
            payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_hash_memo", cached)
        return cached

    def validate(self) -> None:
        """Fail fast (before any worker fan-out) on unresolvable names."""
        get_model(self.model)
        get_instance_type(self.instance)
        get_policy(self.policy)
        if self.cluster:
            from repro.cluster.catalog import get_cluster_spec

            spec = get_cluster_spec(self.cluster)
            if spec.num_machines != self.num_machines:
                raise ValueError(
                    f"chaos scenario {self.name!r}: num_machines "
                    f"{self.num_machines} disagrees with cluster "
                    f"{self.cluster!r} ({spec.num_machines} machines)"
                )
            if self.domain_source == "topology" and spec.topology.is_flat:
                raise ValueError(
                    f"chaos scenario {self.name!r}: "
                    'domain_source="topology" needs a non-flat cluster topology'
                )

    # --------------------------------------------------------- execution

    def build_system(self, seed: int):
        """Instantiate kernel + auditor + injectors for one seed.

        Returns ``(system, auditor, injector, degraders)``.  All chaos
        randomness flows through one :class:`RandomStreams` per seed with
        distinct stream names per injector, so results are independent of
        which worker process runs them.
        """
        from repro.core.kernel import SimulatedTrainingSystem

        model = get_model(self.model)
        cluster_spec = None
        if self.cluster:
            from repro.cluster.catalog import get_cluster_spec

            cluster_spec = get_cluster_spec(self.cluster)
            instance = cluster_spec.primary_instance_type()
        else:
            instance = get_instance_type(self.instance)
        policy = create_policy(self.policy, **self.policy_options())
        system = SimulatedTrainingSystem(
            model,
            instance,
            self.num_machines,
            policy,
            seed=seed,
            num_standby=self.num_standby,
            sanitize=self.sanitize,
            cluster_spec=cluster_spec,
        )
        auditor = RecoveryInvariantAuditor(system)
        streams = RandomStreams(seed)
        horizon = self.horizon_days * DAY
        if self.failure_model == "correlated":
            injector = CorrelatedFailureInjector(
                system.sim,
                system.cluster,
                system.inject_failure,
                events_per_day=self.events_per_day,
                domain_size=self.domain_size,
                domain_source=self.domain_source,
                cluster_spec=cluster_spec,
                rng=streams,
                horizon=horizon,
            )
        elif self.failure_model == "empirical":
            injector = EmpiricalFailureInjector(
                system.sim,
                system.cluster,
                system.inject_failure,
                rng=streams,
                horizon=horizon,
                time_scale=self.empirical_time_scale,
            )
        elif self.failure_model == "adversarial":
            injector = AdversarialFailureInjector(
                system.sim,
                system.cluster,
                system.inject_failure,
                events_per_day=self.events_per_day,
                placement_provider=lambda: getattr(policy, "placement", None),
                spare_one=self.spare_one,
                rng=streams,
                horizon=horizon,
            )
        else:  # poisson
            injector = PoissonFailureInjector(
                system.sim,
                system.cluster,
                system.inject_failure,
                daily_rate=self.events_per_day / self.num_machines,
                software_fraction=self.software_fraction,
                rng=streams,
                horizon=horizon,
            )
        degraders = [
            _DEGRADER_CLASSES[kind](
                system,
                events_per_day=self.degradation_events_per_day,
                rng=streams,
                horizon=horizon,
            )
            for kind in self.degradations
        ]
        return system, auditor, injector, degraders

    def run(self) -> Dict[str, Any]:
        """Execute every seed; returns one JSON-stable result row."""
        ratios: List[float] = []
        violations: List[Dict[str, Any]] = []
        total_failures = 0
        total_recoveries = 0
        cpu_recoveries = 0
        degradations_injected = 0
        audited_plans = 0
        for seed in self.seeds:
            system, auditor, _injector, degraders = self.build_system(seed)
            result = system.run(self.horizon_days * DAY)
            ratios.append(result.effective_ratio)
            total_failures += auditor.audited_failures
            total_recoveries += len(result.recoveries)
            cpu_recoveries += sum(
                1 for record in result.recoveries if record.from_cpu_memory
            )
            degradations_injected += sum(
                len(degrader.injected) for degrader in degraders
            )
            audited_plans += auditor.audited_plans
            violations.extend(
                dict(violation.to_dict(), seed=seed)
                for violation in auditor.violations
            )
        row = {
            "scenario": self.name,
            "hash": self.scenario_hash(),
            "policy": self.policy,
            "failure_model": self.failure_model,
            "model": self.model,
            "instance": self.instance,
            "num_machines": self.num_machines,
            "events_per_day": self.events_per_day,
            "degradations": list(self.degradations),
            "horizon_days": self.horizon_days,
            "seeds": list(self.seeds),
            "ratios": ratios,
            "mean_ratio": sum(ratios) / len(ratios),
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
            "total_failures": total_failures,
            "total_recoveries": total_recoveries,
            "cpu_recoveries": cpu_recoveries,
            "persistent_fallbacks": total_recoveries - cpu_recoveries,
            "degradations_injected": degradations_injected,
            "audited_plans": audited_plans,
            "violation_count": len(violations),
            "violations": violations,
        }
        if self.cluster:
            row["cluster"] = self.cluster
        if self.domain_source != "random":
            row["domain_source"] = self.domain_source
        return row

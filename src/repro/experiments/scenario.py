"""Declarative simulation scenarios for sweeps and chaos campaigns.

A :class:`Scenario` is a frozen, hashable description of one DES
experiment point — workload, cluster size, policy (by registry name),
failure process, optional non-fail-stop degradations and seed set.
``scenario_hash()`` canonicalizes it to a stable sha256 digest used as
the cache key and the deterministic sort key for sweep output; ``run()``
executes every seed through the shared
:class:`repro.core.kernel.SimulatedTrainingSystem` and returns one plain
JSON-serializable result row.

The failure process is one of :data:`FAILURE_MODELS`: independent
Poisson arrivals (the paper's Figure 15 methodology, the default) or the
hostile generators of :mod:`repro.chaos.models`.  A chaos-campaign point
is the same scenario with the recovery invariant auditor attached:
:class:`repro.chaos.scenario.ChaosScenario` subclasses this one and adds
only its defaults, the auditor and the audit columns.

Scenarios run the kernel's fixed-delay detector by default (``use_agents``
defaults to ``False`` unless overridden via ``policy_kwargs``, for every
policy) so multi-day sweeps stay fast.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Tuple

from repro.cluster.instances import get_instance_type
from repro.experiments.registry import create_policy, get_policy
from repro.failures.injector import PoissonFailureInjector
from repro.sim import RandomStreams
from repro.storage.persistent import DEFAULT_PERSISTENT_BANDWIDTH
from repro.training.models import get_model
from repro.units import DAY

__all__ = ["DEGRADATION_KINDS", "FAILURE_MODELS", "Scenario"]

#: failure models a scenario may name.
FAILURE_MODELS: Tuple[str, ...] = ("adversarial", "correlated", "empirical", "poisson")

#: non-fail-stop degradation injectors a scenario may enable
#: (:data:`repro.chaos.degrade.DEGRADERS`).
DEGRADATION_KINDS: Tuple[str, ...] = ("bandwidth", "corruption", "straggler")

#: fields every canonical form carries; any other field enters it only
#: when off its default, so adding a field never moves existing digests.
_CANONICAL_KEYS = frozenset((
    "name", "policy", "model", "instance", "num_machines", "policy_kwargs",
    "failures_per_day", "software_fraction", "horizon_days", "seeds", "num_standby",
))


@dataclass(frozen=True)
class Scenario:
    """One experiment point: workload x policy x failure process."""

    name: str
    policy: str
    model: str = "GPT-2 100B"
    instance: str = "p4d.24xlarge"
    num_machines: int = 16
    #: extra keyword arguments for the policy factory, stored as a sorted
    #: tuple of pairs so the scenario stays hashable; a dict is accepted
    #: and normalized.
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: cluster-wide failure events per day (poisson divides it by N for
    #: the per-machine rate; empirical ignores it, its cadence comes from
    #: the inter-arrival table and ``empirical_time_scale``).
    failures_per_day: float = 0.0
    #: poisson model only.
    software_fraction: float = 1.0
    horizon_days: float = 1.0
    seeds: Tuple[int, ...] = (0, 1, 2)
    num_standby: int = 2
    #: named :class:`repro.cluster.catalog.ClusterSpec` ("" = no spec: the
    #: legacy flat homogeneous path).  When set it must agree with
    #: ``num_machines``, and ``instance`` is ignored in favor of the
    #: spec's shapes.
    cluster: str = ""
    #: one of :data:`FAILURE_MODELS`.
    failure_model: str = "poisson"
    #: correlated model: fault-domain size.
    domain_size: int = 2
    #: correlated model: where fault domains come from.  "random" draws
    #: them from the chaos-domains stream; "topology" downs *real racks*
    #: of the named ``cluster`` spec.
    domain_source: str = "random"
    #: adversarial model: spare one member of the targeted replica set.
    spare_one: bool = False
    #: empirical model: compresses logbook-scale gaps (hours-days) into
    #: short horizons.
    empirical_time_scale: float = 0.02
    #: subset of :data:`DEGRADATION_KINDS` to run alongside the failures.
    degradations: Tuple[str, ...] = ()
    degradation_events_per_day: float = 0.0
    #: arm the runtime determinism guard in every kernel (lint-sim's
    #: runtime half); part of the hash because it is part of the spec.
    sanitize: bool = False

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
        if self.failure_model not in FAILURE_MODELS:
            raise ValueError(
                f"unknown failure model {self.failure_model!r}; "
                f"valid choices: {', '.join(FAILURE_MODELS)}"
            )
        unknown = set(self.degradations) - set(DEGRADATION_KINDS)
        if unknown:
            raise ValueError(
                f"unknown degradation kinds {sorted(unknown)}; "
                f"valid choices: {', '.join(DEGRADATION_KINDS)}"
            )
        if self.num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {self.num_machines}")
        if self.failures_per_day < 0:
            raise ValueError(
                f"failures_per_day must be >= 0, got {self.failures_per_day}"
            )
        if self.domain_size < 1 or (
            self.failure_model == "correlated" and self.domain_size > self.num_machines
        ):
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
        """Plain-JSON canonical form; ``from_dict`` round-trips it."""
        payload: Dict[str, Any] = {}
        for spec in fields(Scenario):
            value = getattr(self, spec.name)
            if spec.name in _CANONICAL_KEYS or value != spec.default:
                payload[spec.name] = list(value) if isinstance(value, tuple) else value
        payload["policy_kwargs"] = [list(pair) for pair in self.policy_kwargs]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
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
        """Stable digest of the canonical JSON form (cache/sort key).

        Memoized per instance: the sweep layer keys caching, dedup
        detection, and output ordering on this digest, so the canonical
        JSON round-trip runs once, not once per call site.  Safe because
        every hashed field is frozen.
        """
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
                    f"scenario {self.name!r}: num_machines {self.num_machines} "
                    f"disagrees with cluster {self.cluster!r} "
                    f"({spec.num_machines} machines)"
                )
            if self.domain_source == "topology" and spec.topology.is_flat:
                raise ValueError(
                    f"scenario {self.name!r}: "
                    'domain_source="topology" needs a non-flat cluster topology'
                )

    # --------------------------------------------------------- execution

    def build_system(self, seed: int):
        """Instantiate the kernel + failure injector for one seed.

        Returns ``(system, injector)``; determinism comes from the
        name-keyed :class:`RandomStreams` seeded per scenario seed, so
        results are independent of which worker process runs them.
        """
        system, _auditor, injector, _degraders = self._build(seed)
        return system, injector

    def _attach(self, system) -> Any:
        """Observer attached before any injector; none for a plain sweep."""
        return None

    def _build(self, seed: int):
        """``(system, auditor, injector, degraders)`` for one seed.

        All randomness flows through one :class:`RandomStreams` per seed
        with distinct stream names per injector.
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
        options = self.policy_options()
        policy = create_policy(self.policy, **options)
        system = SimulatedTrainingSystem(
            model,
            instance,
            self.num_machines,
            policy,
            seed=seed,
            num_standby=self.num_standby,
            # The policy's cadence and the store it uploads to share one pipe.
            persistent_bandwidth=options.get(
                "persistent_bandwidth", DEFAULT_PERSISTENT_BANDWIDTH
            ),
            sanitize=self.sanitize,
            cluster_spec=cluster_spec,
        )
        auditor = self._attach(system)
        streams = RandomStreams(seed)
        horizon = self.horizon_days * DAY
        target = (system.sim, system.cluster, system.inject_failure)
        injector: Any
        if self.failure_model == "poisson":
            injector = PoissonFailureInjector(
                *target,
                daily_rate=self.failures_per_day / self.num_machines,
                software_fraction=self.software_fraction,
                rng=streams,
                horizon=horizon,
            )
        else:
            from repro.chaos import models

            if self.failure_model == "correlated":
                injector = models.CorrelatedFailureInjector(
                    *target,
                    events_per_day=self.failures_per_day,
                    domain_size=self.domain_size,
                    domain_source=self.domain_source,
                    cluster_spec=cluster_spec,
                    rng=streams,
                    horizon=horizon,
                )
            elif self.failure_model == "empirical":
                injector = models.EmpiricalFailureInjector(
                    *target,
                    rng=streams,
                    horizon=horizon,
                    time_scale=self.empirical_time_scale,
                )
            else:  # adversarial
                injector = models.AdversarialFailureInjector(
                    *target,
                    events_per_day=self.failures_per_day,
                    placement_provider=lambda: getattr(policy, "placement", None),
                    spare_one=self.spare_one,
                    rng=streams,
                    horizon=horizon,
                )
        degraders: List[Any] = []
        if self.degradations:
            from repro.chaos.degrade import DEGRADERS

            degraders = [
                DEGRADERS[kind](
                    system,
                    events_per_day=self.degradation_events_per_day,
                    rng=streams,
                    horizon=horizon,
                )
                for kind in self.degradations
            ]
        return system, auditor, injector, degraders

    def _seed_columns(self, seed: int, result, auditor, injector, degraders) -> Dict[str, Any]:
        """One seed's additive row columns (numbers sum, lists concatenate)."""
        return {
            "total_failures": len(injector.injected),
            "total_recoveries": len(result.recoveries),
        }

    def run(self) -> Dict[str, Any]:
        """Execute every seed; returns one JSON-stable result row."""
        ratios: List[float] = []
        totals: Dict[str, Any] = {}
        for seed in self.seeds:
            system, *observed = self._build(seed)
            result = system.run(self.horizon_days * DAY)
            ratios.append(result.effective_ratio)
            for key, value in self._seed_columns(seed, result, *observed).items():
                totals[key] = totals[key] + value if key in totals else value
        row = {
            "scenario": self.name,
            "hash": self.scenario_hash(),
            "policy": self.policy,
            "model": self.model,
            "instance": self.instance,
            "num_machines": self.num_machines,
            "failures_per_day": self.failures_per_day,
            "horizon_days": self.horizon_days,
            "seeds": list(self.seeds),
            "ratios": ratios,
            "mean_ratio": sum(ratios) / len(ratios),
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
            **totals,
        }
        if self.cluster:
            row["cluster"] = self.cluster
        return row

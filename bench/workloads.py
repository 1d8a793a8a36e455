"""The four benchmark workloads, built from a seed.

Each workload is a list of *ops*.  An op has a construction step (the
``GeminiSystem(...)`` / ``*.build_system`` call, timed into ``setup_s``)
and a measured step (``system.run`` or ``build_report``, timed into
``run_s``), and a *digest* that turns the measured step's output into a
canonical payload (fingerprinted), a list of problems (an op with any
problem failed) and a few numbers the summaries read.

The seed chooses every input the program receives; the program's own
seeds come from it too, so the same seed always gives the same inputs
and, the simulator being deterministic, the same outputs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence


@dataclass
class Digest:
    """What one op's output says, in a form the benchmark can compare."""

    #: canonical JSON-able output; its sha256 is the op's fingerprint.
    payload: Any
    #: why the output is wrong; empty when it is right.
    problems: List[str] = field(default_factory=list)
    #: numbers the summaries read (e.g. an effective ratio).
    facts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One public-call pair: construct (timed as setup), then run."""

    label: str
    build: Callable[[], Any]
    run: Callable[[Any], Any]
    digest: Callable[[Any], Digest]


@dataclass(frozen=True)
class Plan:
    """A workload's ops for one seed, plus its workload-level summary."""

    ops: List[Op]
    summarize: Callable[[Sequence[Digest]], Dict[str, float]] = lambda digests: {}


def fingerprint(payload: Any) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_canonical)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def audit_problems(auditor) -> List[str]:
    """One problem per recovery invariant the auditor saw violated."""
    return [
        f"auditor {violation.invariant} at t={violation.time}: {violation.message}"
        for violation in auditor.violations
    ]


def system_digest(result, auditor, **facts: float) -> Digest:
    """Digest of one ``SystemResult`` run under a recovery auditor."""
    return Digest(
        payload=dataclasses.asdict(result),
        problems=audit_problems(auditor),
        facts={"audited_plans": auditor.audited_plans, **facts},
    )


# -- agents_hour ------------------------------------------------------------------


def agents_hour(seed: int, quick: bool) -> Plan:
    """Default agent-mode GEMINI, one simulated hour, three scripted failures.

    A software failure in [10, 20) min and a hardware failure in
    [25, 35) min strike random ranks other than the root leader; at 45 min
    the leader reported at build is killed, which forces re-election.
    """
    from repro.chaos.auditor import RecoveryInvariantAuditor
    from repro.cluster import P4D_24XLARGE
    from repro.core.system import GeminiConfig, GeminiSystem
    from repro.failures import FailureEvent, FailureType, TraceFailureInjector
    from repro.training import GPT2_100B
    from repro.units import HOUR, MINUTE

    machines = 16 if quick else 128
    rng = random.Random(seed)
    software_at = rng.uniform(10 * MINUTE, 20 * MINUTE)
    software_offset = 1 + rng.randrange(machines - 1)
    hardware_at = rng.uniform(25 * MINUTE, 35 * MINUTE)
    hardware_offset = 1 + rng.randrange(machines - 1)

    def build():
        system = GeminiSystem(
            GPT2_100B,
            P4D_24XLARGE,
            machines,
            config=GeminiConfig(num_standby=2, seed=seed),
        )
        auditor = RecoveryInvariantAuditor(system)
        leader = system.leader_rank
        if leader is None:
            raise RuntimeError("no root leader elected at build")
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [
                FailureEvent(
                    software_at,
                    FailureType.SOFTWARE,
                    [(leader + software_offset) % machines],
                ),
                FailureEvent(
                    hardware_at,
                    FailureType.HARDWARE,
                    [(leader + hardware_offset) % machines],
                ),
                FailureEvent(45 * MINUTE, FailureType.HARDWARE, [leader]),
            ],
            system.inject_failure,
        )
        return system, auditor

    def run(built):
        system, auditor = built
        return system.run(HOUR), auditor

    def digest(output) -> Digest:
        result, auditor = output
        found = system_digest(result, auditor)
        if len(result.recoveries) != 3:
            found.problems.append(f"{len(result.recoveries)} recoveries, expected 3")
        return found

    return Plan([Op(f"agents-{machines}-s{seed}", build, run, digest)])


# -- des_report -------------------------------------------------------------------


def des_report(seed: int, quick: bool) -> Plan:
    """``report --des``: the paper's fixed configurations; the seed is unused."""
    from repro.harness.report import build_report

    def digest(sections) -> Digest:
        return Digest(
            payload=[[s.section_id, s.title, s.rows] for s in sections],
            problems=[f"section {s.section_id} has no rows" for s in sections if not s.rows],
        )

    return Plan(
        [
            Op(
                "report-des" if not quick else "report",
                build=lambda: None,
                run=lambda _built: build_report(include_des=not quick),
                digest=digest,
            )
        ]
    )


# -- fleet_chaos ------------------------------------------------------------------


def fleet_chaos(seed: int, quick: bool) -> Plan:
    """The chaos ``fleet`` preset (1024 machines) at seeds S .. S+5.

    Six seeds rather than the preset's three: a seed's failure draw moves
    its run time by about 6%, and averaging six keeps that input
    variance well inside the ``run_s`` bound.
    """
    from repro.chaos.campaign import CAMPAIGN_PRESETS, chaos_grid
    from repro.units import DAY

    seeds = (seed,) if quick else tuple(range(seed, seed + 6))
    grid = [
        dataclasses.replace(scenario, seeds=seeds)
        for scenario in chaos_grid(**CAMPAIGN_PRESETS["fleet"])
    ]
    if quick:
        grid = grid[:1]

    def op(scenario, cell_seed: int) -> Op:
        def run(built):
            system, auditor, _injector, _degraders = built
            return system.run(scenario.horizon_days * DAY), auditor

        return Op(
            f"{scenario.name}-s{cell_seed}",
            build=lambda: scenario.build_system(cell_seed),
            run=run,
            digest=lambda output: system_digest(*output),
        )

    return Plan([op(scenario, s) for scenario in grid for s in scenario.seeds])


# -- policy_sweep -----------------------------------------------------------------

SWEEP_POLICIES = (
    "gemini",
    "highfreq",
    "strawman",
    "checkmate",
    "tiercheck",
    "sparse_moe",
    "reft",
)
SWEEP_RATES = (2.0, 8.0)


def policy_sweep(seed: int, quick: bool) -> Plan:
    """Figure 15 / frontier sweep: 7 policies x {2, 8} failures/day x 3 seeds.

    Each cell's DES mean effective ratio is compared against the policy's
    Equation 1 ratio; ``eq1_gap_pts`` is the mean absolute gap in points.
    """
    from repro.chaos.auditor import RecoveryInvariantAuditor
    from repro.cluster import P4D_24XLARGE
    from repro.experiments.scenario import Scenario
    from repro.metrics.efficiency import effective_training_time_ratio
    from repro.training import GPT2_100B, ShardingSpec, build_iteration_plan
    from repro.units import DAY

    seeds = (seed,) if quick else (seed, seed + 1, seed + 2)
    cells = [
        Scenario(
            name=f"{policy}-r{rate:g}",
            policy=policy,
            failures_per_day=rate,
            horizon_days=0.25 if quick else 2.0,
            seeds=seeds,
        )
        for policy in SWEEP_POLICIES
        for rate in SWEEP_RATES
    ]

    def op(scenario, cell_seed: int) -> Op:
        def build():
            system, _injector = scenario.build_system(cell_seed)
            return system, RecoveryInvariantAuditor(system)

        def run(built):
            system, auditor = built
            return system.run(scenario.horizon_days * DAY), auditor

        def digest(output) -> Digest:
            result, auditor = output
            return system_digest(result, auditor, ratio=result.effective_ratio)

        return Op(f"{scenario.name}-s{cell_seed}", build, run, digest)

    def summarize(digests: Sequence[Digest]) -> Dict[str, float]:
        spec = ShardingSpec(GPT2_100B, 16)
        iteration_plan = build_iteration_plan(GPT2_100B, P4D_24XLARGE, 16)
        gaps = []
        for index, scenario in enumerate(cells):
            ratios = [
                d.facts["ratio"] for d in digests[index * len(seeds):(index + 1) * len(seeds)]
            ]
            analytic = effective_training_time_ratio(
                scenario.policy, spec, iteration_plan, scenario.failures_per_day
            )
            gaps.append(abs(sum(ratios) / len(ratios) - analytic) * 100.0)
        return {"eq1_gap_pts": sum(gaps) / len(gaps)}

    return Plan([op(scenario, s) for scenario in cells for s in seeds], summarize)


#: workload name -> ``plan(seed, quick)``, which imports what the workload
#: needs and builds its ops; in a fresh interpreter its time is the import
#: share of ``setup_s``.  Why each workload was chosen: ``README.md``.
WORKLOADS: Dict[str, Callable[[int, bool], Plan]] = {
    "agents_hour": agents_hour,
    "des_report": des_report,
    "fleet_chaos": fleet_chaos,
    "policy_sweep": policy_sweep,
}

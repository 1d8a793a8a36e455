"""Shared golden-parity scenario definitions.

The scenarios run the three first-class policies (GEMINI, Strawman,
HighFreq) through the public system constructors with deterministic
Poisson failure injection, plus two agents-mode GEMINI runs with scripted
failures (the second kills the root leader, forcing a re-election).
``snapshot()`` reduces a run to a JSON-stable dict.

``generate.py`` ran these against the *pre-refactor*
``GeminiSystem``/``BaselineSystem`` implementations and froze the
results under ``tests/golden/*.json``; ``test_golden_parity.py`` replays
them against whatever implementation is current and asserts exact
equality — the refactoring safety net for the policy-kernel split.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cluster.instances import P4D_24XLARGE
from repro.failures.injector import PoissonFailureInjector, TraceFailureInjector
from repro.failures.types import FailureEvent, FailureType
from repro.sim import RandomStreams
from repro.training.models import GPT2_100B
from repro.units import DAY, HOUR

SEEDS = (0, 1, 2)
NUM_MACHINES = 16
FAILURES_PER_DAY = 4.0
SOFTWARE_FRACTION = 0.7
HORIZON = 1.0 * DAY
NUM_STANDBY = 2

#: scenario name -> golden file stem
SCENARIOS = (
    "gemini",
    "strawman",
    "highfreq",
    "gemini_agents",
    # agents mode with a kill of the build-time root leader, so the
    # snapshot pins which candidate wins the re-election
    "gemini_agents_root_kill",
    # frontier policies (PR 10): snapshots generated at introduction,
    # frozen as the behavior contract for later refactors
    "checkmate",
    "tiercheck",
    "sparse_moe",
    "reft",
)

#: scenarios run through the generic registry + kernel path
FRONTIER_SCENARIOS = ("checkmate", "tiercheck", "sparse_moe", "reft")


def snapshot(result) -> Dict[str, Any]:
    """Reduce a SystemResult to an exactly comparable plain dict."""
    by_source: Dict[str, int] = {}
    by_type: Dict[str, int] = {}
    for record in result.recoveries:
        source = record.source.value if record.source else "none"
        by_source[source] = by_source.get(source, 0) + 1
        kind = record.failure_type.value
        by_type[kind] = by_type.get(kind, 0) + 1
    return {
        "elapsed": result.elapsed,
        "final_iteration": result.final_iteration,
        "iteration_time": result.iteration_time,
        "persistent_checkpoints": result.persistent_checkpoints,
        "num_recoveries": len(result.recoveries),
        "recoveries_by_source": dict(sorted(by_source.items())),
        "recoveries_by_failure_type": dict(sorted(by_type.items())),
        "rollback_iterations": [r.rollback_iteration for r in result.recoveries],
        "resumed_at": [r.resumed_at for r in result.recoveries],
        "total_overheads": [r.total_overhead for r in result.recoveries],
    }


def run_scenario(name: str, seed: int) -> Dict[str, Any]:
    """Run one golden scenario through the public system constructors."""
    # Imports are local so this module stays importable mid-refactor.
    from repro.baselines.system import BaselineSystem
    from repro.core.system import GeminiConfig, GeminiSystem

    if name == "gemini_agents":
        system = GeminiSystem(
            GPT2_100B,
            P4D_24XLARGE,
            NUM_MACHINES,
            config=GeminiConfig(num_standby=1, seed=seed, use_agents=True),
        )
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [3]),
                FailureEvent(4000.0, FailureType.SOFTWARE, [5]),
            ],
            system.inject_failure,
        )
        return snapshot(system.run(2 * HOUR))

    if name == "gemini_agents_root_kill":
        system = GeminiSystem(
            GPT2_100B,
            P4D_24XLARGE,
            NUM_MACHINES,
            config=GeminiConfig(num_standby=2, seed=seed, use_agents=True),
        )
        leader = system.leader_rank
        TraceFailureInjector(
            system.sim,
            system.cluster,
            [
                FailureEvent(1000.0, FailureType.HARDWARE, [(leader + 5) % NUM_MACHINES]),
                FailureEvent(4000.0, FailureType.HARDWARE, [leader]),
            ],
            system.inject_failure,
        )
        result = system.run(2 * HOUR)
        return {
            **snapshot(result),
            "detected_at": [r.detected_at for r in result.recoveries],
            "leader_at_build": leader,
            "leader_at_end": system.leader_rank,
        }

    if name == "gemini":
        system = GeminiSystem(
            GPT2_100B,
            P4D_24XLARGE,
            NUM_MACHINES,
            config=GeminiConfig(
                num_standby=NUM_STANDBY, seed=seed, use_agents=False
            ),
        )
    elif name in ("strawman", "highfreq"):
        system = BaselineSystem(
            GPT2_100B,
            P4D_24XLARGE,
            NUM_MACHINES,
            policy=name,
            seed=seed,
            num_standby=NUM_STANDBY,
        )
    elif name in FRONTIER_SCENARIOS:
        from repro.core.kernel import SimulatedTrainingSystem
        from repro.experiments.registry import create_policy

        system = SimulatedTrainingSystem(
            GPT2_100B,
            P4D_24XLARGE,
            NUM_MACHINES,
            create_policy(name, use_agents=False),
            seed=seed,
            num_standby=NUM_STANDBY,
        )
    else:
        raise ValueError(f"unknown golden scenario {name!r}")
    PoissonFailureInjector(
        system.sim,
        system.cluster,
        system.inject_failure,
        daily_rate=FAILURES_PER_DAY / NUM_MACHINES,
        software_fraction=SOFTWARE_FRACTION,
        rng=RandomStreams(seed),
        horizon=HORIZON,
    )
    return snapshot(system.run(HORIZON))


def run_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return {
        name: {str(seed): run_scenario(name, seed) for seed in SEEDS}
        for name in SCENARIOS
    }

"""Macro-tick batching is a pure optimization: coalesced runs must be
bit-identical to per-iteration stepping.

The kernel's macro-tick fast path advances whole failure-free iteration
stretches analytically in one event; any failure, degradation, or
cadence-boundary hook settles the open window and falls back to
per-iteration stepping.  These properties pin the equivalence for every
registered policy, across seeds, and under each degradation injector
(stragglers and bandwidth loss are exactly the interrupts that force the
fallback path), comparing the full trace byte stream plus the result
fields — not summaries.

Also here: the documented ``events_processed``/``events_tally``
accounting under coalescing.  Coalescing *reduces* the number of DES
events a run fires (that is the whole point); both counters count events
actually fired, not iterations simulated, so they shrink together and
the module tally advances by exactly the per-run count.
"""

import pytest

from repro.chaos.degrade import (
    BandwidthDegradationInjector,
    ReplicaCorruptionInjector,
    StragglerInjector,
)
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.experiments import available_policies, create_policy
from repro.failures import PoissonFailureInjector
from repro.sim import RandomStreams, events_tally
from repro.training import GPT2_100B
from repro.units import DAY

POLICIES = available_policies()
SEEDS = (0, 1, 2)
HORIZON = 0.5 * DAY
NUM_MACHINES = 16

DEGRADATIONS = {
    "none": (),
    "bandwidth": (BandwidthDegradationInjector,),
    "straggler": (StragglerInjector,),
    "corruption": (ReplicaCorruptionInjector,),
    "all": (
        BandwidthDegradationInjector,
        StragglerInjector,
        ReplicaCorruptionInjector,
    ),
}


def run_once(name, seed, *, macro_ticks, degradations=()):
    """One failure/recovery run; returns (system, result)."""
    policy = create_policy(name, use_agents=False)
    system = SimulatedTrainingSystem(
        GPT2_100B,
        P4D_24XLARGE,
        NUM_MACHINES,
        policy,
        seed=seed,
        num_standby=2,
        macro_ticks=macro_ticks,
    )
    rng = RandomStreams(seed)
    PoissonFailureInjector(
        system.sim,
        system.cluster,
        system.inject_failure,
        daily_rate=8.0 / NUM_MACHINES,
        rng=rng,
        horizon=HORIZON,
    )
    for injector_cls in degradations:
        injector_cls(system, events_per_day=96.0, rng=rng, horizon=HORIZON)
    result = system.run(HORIZON)
    return system, result


def fingerprint(system, result):
    """Everything a run produced: the full trace bytes plus the results."""
    return (
        system.trace.to_jsonl(),
        result.elapsed,
        result.final_iteration,
        result.iteration_time,
        result.persistent_checkpoints,
        len(result.recoveries),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", POLICIES)
def test_macro_ticks_bit_exact_vs_per_iteration(name, seed):
    fast = fingerprint(*run_once(name, seed, macro_ticks=True))
    slow = fingerprint(*run_once(name, seed, macro_ticks=False))
    assert fast == slow


@pytest.mark.parametrize("mix", sorted(DEGRADATIONS))
@pytest.mark.parametrize("name", POLICIES)
def test_macro_ticks_bit_exact_under_degradations(name, mix):
    degradations = DEGRADATIONS[mix]
    fast = fingerprint(
        *run_once(name, 0, macro_ticks=True, degradations=degradations)
    )
    slow = fingerprint(
        *run_once(name, 0, macro_ticks=False, degradations=degradations)
    )
    assert fast == slow


def test_events_accounting_documented_consistent_under_coalescing():
    """``events_processed`` counts events fired, not iterations simulated.

    Under coalescing a run fires far fewer events for the same simulated
    work, and the module-level ``events_tally`` advances by exactly each
    run's ``events_processed`` — no double counting, no phantom events
    for the analytically skipped iterations.
    """
    before = events_tally()
    fast_system, fast_result = run_once("gemini", 0, macro_ticks=True)
    after_fast = events_tally()
    assert after_fast - before == fast_system.sim.events_processed

    slow_system, slow_result = run_once("gemini", 0, macro_ticks=False)
    after_slow = events_tally()
    assert after_slow - after_fast == slow_system.sim.events_processed

    # Identical simulated outcome, an order fewer events fired.
    assert fast_result.final_iteration == slow_result.final_iteration
    assert fast_system.sim.events_processed < slow_system.sim.events_processed

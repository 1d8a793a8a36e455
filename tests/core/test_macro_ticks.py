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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.degrade import (
    BandwidthDegradationInjector,
    ReplicaCorruptionInjector,
    StragglerInjector,
)
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem, _boundary_chain
from repro.experiments import available_policies, create_policy
from repro.failures import (
    FailureEvent,
    FailureType,
    PoissonFailureInjector,
    TraceFailureInjector,
)
from repro.failures.injector import apply_failure
from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.sim import RandomStreams, events_tally
from repro.trace import TraceKind
from repro.training import GPT2_100B
from repro.units import DAY, HOUR

#: plain ``gemini`` with its §3.2 agents on (the ``GeminiSystem``
#: default); the other policies run here with the fixed-delay detector.
AGENT_MODE = "gemini+agents"
POLICIES = (*available_policies(), AGENT_MODE)
SEEDS = (0, 1, 2)
HORIZON = 0.5 * DAY
NUM_MACHINES = 16

#: the DES's own event counters: a coalesced run fires fewer events.
SIM_COUNTERS = ("repro_sim_events_processed_total", "repro_sim_queue_depth")

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


def run_once(name, seed, *, macro_ticks, degradations=(), obs=None, **policy_kwargs):
    """One failure/recovery run; returns (system, result)."""
    if name == AGENT_MODE:
        policy = create_policy("gemini", use_agents=True, **policy_kwargs)
    else:
        policy = create_policy(name, use_agents=False, **policy_kwargs)
    system = SimulatedTrainingSystem(
        GPT2_100B,
        P4D_24XLARGE,
        NUM_MACHINES,
        policy,
        seed=seed,
        num_standby=2,
        macro_ticks=macro_ticks,
        obs=obs,
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


def exported(obs):
    """The Prometheus text of a run's metrics, less the DES's own event
    counters (a coalesced run fires fewer events)."""
    return [
        line
        for line in to_prometheus(obs.metrics).splitlines()
        if not line.startswith(SIM_COUNTERS)
    ]


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


@pytest.mark.parametrize("name", POLICIES)
def test_macro_ticks_metrics_match_per_iteration(name):
    """Exported metrics agree too, CPU-memory commit counters included (a
    macro tick counts the store writes its replayed commits stand for);
    only the DES's own event counters differ.  Each ``checkpoint.commit``
    tracer instant is stamped at its commit's boundary, so a replayed
    commit reads the same time as the per-iteration one."""

    def observed(macro_ticks):
        obs = Observability()
        run_once(name, 0, macro_ticks=macro_ticks, obs=obs)
        commits = [
            (instant.time, instant.args["iteration"])
            for instant in obs.tracer.instants
            if instant.name == "checkpoint.commit"
        ]
        return exported(obs), commits

    assert observed(True) == observed(False)


# ------------------------------------------------------- commit intervals
#
# With a commit every few iterations, a replayed stretch of iterations
# starts and ends off the commit grid; its commits are worked out from
# the interval, the stretch's ends and its boundary times.

INTERVAL_POLICIES = ("checkmate", "gemini", "sparse_moe")

#: 6 experts over a period of 4: iterations dirty 2, 1, 1 or 2 experts
#: by residue (the default 16 dirty 4 at every residue), so replayed
#: dirty bytes depend on which iterations committed.
POLICY_KWARGS = {"sparse_moe": {"num_experts": 6}}


@pytest.mark.parametrize("mix", ("none", "all"))
@pytest.mark.parametrize("interval", (1, 3, 4))
@pytest.mark.parametrize("name", INTERVAL_POLICIES)
def test_macro_ticks_bit_exact_at_commit_interval(name, interval, mix):
    def observed(macro_ticks):
        obs = Observability()
        system, result = run_once(
            name,
            0,
            macro_ticks=macro_ticks,
            degradations=DEGRADATIONS[mix],
            obs=obs,
            checkpoint_interval_iterations=interval,
            **POLICY_KWARGS.get(name, {}),
        )
        replicated = getattr(system.policy, "replicated_bytes", None)
        return system, (fingerprint(system, result), exported(obs), replicated)

    fast_system, fast = observed(True)
    slow_system, slow = observed(False)
    assert fast == slow
    commits = fast_system.trace.of_kind(TraceKind.CHECKPOINT_COMMIT)
    assert len(commits) > 20
    assert all(event.detail["iteration"] % interval == 0 for event in commits)
    assert fast_system.sim.events_processed < slow_system.sim.events_processed


@settings(max_examples=300, deadline=None)
@given(
    now=st.floats(min_value=0.0, max_value=1e7),
    step=st.floats(min_value=1e-3, max_value=1e4),
    fraction=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    ),
    count=st.integers(min_value=1, max_value=300),
)
def test_boundary_chain_is_the_per_iteration_fold(now, step, fraction, count):
    """A window's boundaries and gradient points equal the explicit
    per-iteration loop's, float for float."""
    t = now
    boundaries = []
    gradients = None if fraction is None else []
    for _ in range(count):
        if fraction is None:
            t = t + step
        else:
            head = step * fraction
            g = t + head
            t = g + (step - head)
            gradients.append(g)
        boundaries.append(t)
    assert _boundary_chain(now, step, count, fraction) == (boundaries, gradients)


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


def test_failure_intake_releases_the_closed_window_tail():
    """A closed window keeps only its applied boundaries (and replayed
    gradient points), and the wake it scheduled for its old end time
    changes nothing when it fires."""
    for name in ("gemini", "checkmate"):
        policy = create_policy(name, use_agents=False)
        system = SimulatedTrainingSystem(
            GPT2_100B, P4D_24XLARGE, NUM_MACHINES, policy, seed=0, macro_ticks=True
        )
        # Past iteration 51's gradient point (at 50.75 iterations), before
        # its end.
        failure_at = 50.9 * system.iteration_time
        system.sim.run(until=failure_at)
        window = system._macro_window
        assert window is not None and len(window.boundaries) > 51
        token = window.token
        failure = FailureEvent(failure_at, FailureType.SOFTWARE, [3])
        apply_failure(system.cluster, failure)
        system.inject_failure(failure)

        assert system._macro_window is None
        assert len(window.boundaries) == window.applied == 50
        assert window.boundaries[-1] < failure_at
        if window.gradients is None:
            assert system.committed_iteration == 50
        else:
            assert len(window.gradients) == window.replayed == 51
            assert window.gradients[-1] < failure_at
            assert system.committed_iteration == 51
        state = (system.current_iteration, system.committed_iteration)
        system._macro_wake(window, token)
        assert (system.current_iteration, system.committed_iteration) == state
        assert not window.done.triggered


# ------------------------------------------------------------ scripted ties
#
# Ties between a scripted event and a gradient point or an iteration end,
# on a policy with a gradient phase.  Scripted events are queued before
# the run starts, so each pops before the kernel's own timeout at the
# same instant; both paths must agree on what that order means.

TIE_ITERATION = 50
SCRIPTED_HORIZON = 3 * HOUR


def gradient_chain(k):
    """``(g, t)``: iteration ``k``'s gradient point and end, by the
    kernel's float chain from ``t = 0``."""
    probe = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, NUM_MACHINES, create_policy("checkmate"), seed=0
    )
    step = probe.iteration_time
    head = step * probe.policy.gradient_phase_fraction
    t = 0.0
    for _ in range(k):
        g = t + head
        t = g + (step - head)
    return g, t


def run_scripted(failures, scales, *, macro_ticks):
    """A Checkmate run with scripted failures and ``iteration_scale``
    changes; returns the run's fingerprint and its exported metrics."""
    obs = Observability()
    policy = create_policy("checkmate", use_agents=False)
    system = SimulatedTrainingSystem(
        GPT2_100B,
        P4D_24XLARGE,
        NUM_MACHINES,
        policy,
        seed=0,
        num_standby=2,
        macro_ticks=macro_ticks,
        obs=obs,
    )
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(at, kind, ranks) for at, kind, ranks in failures],
        system.inject_failure,
    )
    for at, scale in scales:
        system.sim.call_at(
            at, lambda scale=scale: setattr(system, "iteration_scale", scale)
        )
    result = system.run(SCRIPTED_HORIZON)
    return fingerprint(system, result), exported(obs)


def tie_case(case):
    g, t = gradient_chain(TIE_ITERATION)
    later = t + 41.3 * (t - g)
    if case == "failure_at_g":
        return [(g, FailureType.HARDWARE, [3])], []
    if case == "failure_at_t":
        return [(t, FailureType.HARDWARE, [3])], []
    if case == "two_failures_at_g":
        return [(g, FailureType.SOFTWARE, [3]), (g, FailureType.HARDWARE, [8])], []
    # A slower stretch starting at g, inside the tail, or at t, then a
    # failure while it lasts and a return to nominal speed afterwards.
    start = {"scale_at_g": g, "scale_in_tail": (g + t) / 2, "scale_at_t": t}[case]
    return (
        [(later, FailureType.SOFTWARE, [5])],
        [(start, 1.5), (later + HOUR, 1.0)],
    )


@pytest.mark.parametrize(
    "case",
    [
        "failure_at_g",
        "failure_at_t",
        "two_failures_at_g",
        "scale_at_g",
        "scale_in_tail",
        "scale_at_t",
    ],
)
def test_macro_ticks_bit_exact_on_gradient_ties(case):
    failures, scales = tie_case(case)
    fast = run_scripted(failures, scales, macro_ticks=True)
    slow = run_scripted(failures, scales, macro_ticks=False)
    assert fast == slow


def test_interrupt_keeps_the_inflight_gradient_point_and_end():
    """Truncating a Checkmate window keeps exactly the in-flight
    iteration's gradient point and end, at their original times."""
    policy = create_policy("checkmate", use_agents=False)
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, NUM_MACHINES, policy, seed=0, macro_ticks=True
    )
    system.sim.run(until=50.5 * system.iteration_time)
    window = system._macro_window
    inflight = (window.gradients[50], window.boundaries[50])
    system.iteration_scale = 1.5

    assert window.applied == window.replayed == 50
    assert window.gradients[50:] == [inflight[0]]
    assert window.boundaries[50:] == [inflight[1]]

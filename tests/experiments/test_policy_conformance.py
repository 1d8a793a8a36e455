"""CheckpointPolicy conformance: every registered policy honors the
kernel contract.

Parametrized over ``available_policies()`` so a newly registered policy
is automatically held to the same invariants:

- lifecycle hooks fire in the documented order;
- every recovery record's phases tile ``[failure_time, resumed_at]``
  exactly (the Figure 14 invariant);
- results are bit-identical with observability on or off (recording must
  never schedule simulator events);
- recoveries audit clean under either detector the kernel runs (the
  fixed delay, or the agent plane with I8's detection window active);
- every policy runs the one recovery loop: each pass is typed from the
  machines it finds down, a failure landing mid-pass gets its own pass,
  and the trace runs the loop's phases in order;
- ``timings()`` works unbound with explicit workload arguments and
  raises without them.
"""

import pytest

from repro.chaos.auditor import RecoveryInvariantAuditor
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.experiments import available_policies, create_policy
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.obs import Observability
from repro.trace import TraceKind
from repro.training import GPT2_100B
from repro.units import HOUR

POLICIES = available_policies()

FAILURES = [
    FailureEvent(1000.0, FailureType.HARDWARE, [3]),
    FailureEvent(7000.0, FailureType.SOFTWARE, [5]),
]

HOOKS = (
    "configure",
    "build",
    "on_start",
    "on_iteration",
    "fast_forward",
    "on_failure",
    "after_failure",
    "plan_recovery",
    "recover",
)


def build_system(name, obs=None, calls=None, use_agents=False, failures=FAILURES):
    policy = create_policy(name, use_agents=use_agents)
    if calls is not None:
        for hook in HOOKS:
            original = getattr(policy, hook)

            def spy(*args, _hook=hook, _original=original, **kwargs):
                calls.append(_hook)
                return _original(*args, **kwargs)

            setattr(policy, hook, spy)
    system = SimulatedTrainingSystem(
        GPT2_100B, P4D_24XLARGE, 16, policy, seed=0, num_standby=2, obs=obs
    )
    TraceFailureInjector(
        system.sim, system.cluster, list(failures), system.inject_failure
    )
    return system


def run_system(name, obs=None, calls=None):
    return build_system(name, obs, calls).run(3 * HOUR)


#: the loop's trace, one pass; REPLACEMENT only when hardware failed.
PASS_PHASES = (
    TraceKind.DETECTION,
    TraceKind.REPLACEMENT,
    TraceKind.SERIALIZATION,
    TraceKind.RETRIEVAL,
    TraceKind.ROLLBACK,
    TraceKind.RESUME,
)


def recovery_passes(system):
    """The recovery trace kinds of ``system``, split at each DETECTION."""
    passes = []
    for event in system.trace.events:
        if event.kind is TraceKind.DETECTION:
            passes.append([])
        if event.kind in PASS_PHASES:
            passes[-1].append(event.kind)
    return passes


def result_fingerprint(result):
    return (
        result.elapsed,
        result.final_iteration,
        result.iteration_time,
        result.persistent_checkpoints,
        [
            (
                r.failure_time,
                r.failure_type,
                tuple(r.failed_ranks),
                r.detected_at,
                r.replacement_done_at,
                r.serialization_done_at,
                r.retrieval_done_at,
                r.resumed_at,
                r.rollback_iteration,
                r.source,
                r.from_cpu_memory,
            )
            for r in result.recoveries
        ],
    )


@pytest.mark.parametrize("name", POLICIES)
class TestConformance:
    def test_hooks_fire_in_documented_order(self, name):
        calls = []
        result = run_system(name, calls=calls)
        assert len(result.recoveries) == 2

        # Setup hooks, exactly once each, in order, before anything else.
        assert calls[:3] == ["configure", "build", "on_start"]
        for hook in ("configure", "build", "on_start"):
            assert calls.count(hook) == 1

        # Per failure: on_failure strictly before after_failure; recovery
        # (and its plan) only after detection was scheduled.
        assert calls.count("on_failure") == len(FAILURES)
        assert calls.count("after_failure") == len(FAILURES)
        assert calls.count("recover") >= 1
        assert calls.count("plan_recovery") >= 1
        assert calls.index("on_failure") < calls.index("after_failure")
        assert calls.index("after_failure") < calls.index("recover")
        assert calls.index("recover") <= calls.index("plan_recovery")
        # Training ran before the first failure hit: per-iteration
        # stepping surfaces as on_iteration, a coalesced macro tick as
        # fast_forward (settled by failure intake before on_failure).
        progress = [
            index
            for index, call in enumerate(calls)
            if call in ("on_iteration", "fast_forward")
        ]
        assert progress and progress[0] < calls.index("on_failure")

    def test_recovery_records_tile_failure_to_resume(self, name):
        result = run_system(name)
        assert result.recoveries
        for record in result.recoveries:
            intervals = record.phase_intervals()
            starts = [start for start, _ in intervals.values()]
            ends = [end for _, end in intervals.values()]
            # Contiguous: each phase begins where the previous ended.
            assert starts[0] == record.failure_time
            assert ends[-1] == record.resumed_at
            assert starts[1:] == ends[:-1]
            for (start, end) in intervals.values():
                assert end >= start
            assert sum(record.phase_durations().values()) == pytest.approx(
                record.total_overhead
            )

    def test_results_bit_identical_with_obs_on_and_off(self, name):
        plain = run_system(name, obs=None)
        observed = run_system(name, obs=Observability())
        assert result_fingerprint(plain) == result_fingerprint(observed)

    @pytest.mark.parametrize("use_agents", [False, True])
    def test_recoveries_audit_clean_under_either_detector(self, name, use_agents):
        system = build_system(name, use_agents=use_agents)
        auditor = RecoveryInvariantAuditor(system)
        result = system.run(3 * HOUR)
        assert len(result.recoveries) == 2
        assert auditor.violations == []
        assert (auditor.detection_window is not None) is use_agents

    def test_unbound_timings_requires_workload(self, name, workload):
        spec, plan = workload
        policy = create_policy(name)
        timings = policy.timings(spec, plan)
        assert timings.checkpoint_interval > 0
        with pytest.raises(ValueError, match="unbound policy"):
            policy.timings()

    def test_expected_loss_positive_and_needs_workload(self, name, workload):
        spec, plan = workload
        policy = create_policy(name)
        assert policy.expected_loss_per_failure(spec, plan) > 0
        with pytest.raises(ValueError, match="unbound policy"):
            policy.expected_loss_per_failure()

    def test_pass_typed_from_machines_down_when_it_starts(self, name):
        # The hardware failure lands during the software failure's pass:
        # the next pass replaces rank 5, so it is a hardware pass.
        system = build_system(
            name,
            failures=[
                FailureEvent(1003.0, FailureType.SOFTWARE, [3]),
                FailureEvent(1100.0, FailureType.HARDWARE, [5]),
            ],
        )
        result = system.run(3 * HOUR)
        assert [(r.failure_type, r.failed_ranks) for r in result.recoveries] == [
            (FailureType.SOFTWARE, [3]),
            (FailureType.HARDWARE, [5]),
        ]

    def test_failure_on_replaced_rank_gets_its_own_pass(self, name):
        # Rank 3's replacement crashes at 1500 s.  A persistent recovery
        # is still retrieving then; its pass must not restart the rank
        # silently.
        system = build_system(
            name,
            failures=[
                FailureEvent(1003.0, FailureType.HARDWARE, [3]),
                FailureEvent(1500.0, FailureType.SOFTWARE, [3]),
            ],
        )
        result = system.run(3 * HOUR)
        first, second = result.recoveries
        assert (first.failure_type, first.failed_ranks) == (
            FailureType.HARDWARE,
            [3],
        )
        if not first.from_cpu_memory:
            assert first.retrieval_done_at > 1500.0
        assert (second.failure_type, second.failed_ranks) == (
            FailureType.SOFTWARE,
            [3],
        )

    def test_each_pass_traces_the_loop_phases_in_order(self, name):
        # The 7100 s failure lands during the 7000 s failure's pass, so
        # the third pass starts from redetect().
        system = build_system(
            name,
            failures=FAILURES + [FailureEvent(7100.0, FailureType.HARDWARE, [9])],
        )
        result = system.run(3 * HOUR)
        passes = recovery_passes(system)
        assert len(passes) == len(result.recoveries) == 3
        for kinds, record in zip(passes, result.recoveries):
            expected = [
                kind
                for kind in PASS_PHASES
                if kind is not TraceKind.REPLACEMENT
                or record.failure_type is FailureType.HARDWARE
            ]
            assert kinds == expected

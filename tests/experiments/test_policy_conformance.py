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


def build_system(name, obs=None, calls=None, use_agents=False):
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
        system.sim, system.cluster, list(FAILURES), system.inject_failure
    )
    return system


def run_system(name, obs=None, calls=None):
    return build_system(name, obs, calls).run(3 * HOUR)


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

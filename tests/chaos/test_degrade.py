"""Non-fail-stop degradation injectors against a live kernel."""

import pytest

from repro.chaos import (
    BandwidthDegradationInjector,
    RecoveryInvariantAuditor,
    ReplicaCorruptionInjector,
    StragglerInjector,
)
from repro.units import HOUR


class TestBandwidthDegradation:
    def test_degrade_then_restore(self, build_system):
        system = build_system("gemini")
        fabric = system.policy.fabric
        injector = BandwidthDegradationInjector(
            system, events_per_day=0.0, factor=0.25, duration=100.0
        )
        full = fabric.egress(system.cluster.machine(0).machine_id).capacity
        seen = {}

        def strike():
            injector._strike()
            rank = injector.injected[-1]["rank"]
            seen["mid"] = system.cluster.machine(rank).machine_id

        system.sim.call_at(50.0, strike)
        system.sim.call_at(
            100.0, lambda: seen.update(during=fabric.egress(seen["mid"]).capacity)
        )
        system.sim.call_at(
            200.0, lambda: seen.update(after=fabric.egress(seen["mid"]).capacity)
        )
        system.run(300.0)
        assert seen["during"] == pytest.approx(full * 0.25)
        assert seen["after"] == pytest.approx(full)
        assert injector.injected[0]["degradation"] == "bandwidth"
        assert injector.injected[0]["time"] == 50.0

    def test_noop_without_fabric(self, build_system):
        system = build_system("strawman")
        injector = BandwidthDegradationInjector(
            system, events_per_day=0.0, factor=0.5, duration=60.0
        )
        system.sim.call_at(50.0, injector._strike)
        system.run(200.0)
        assert injector.injected == []

    def test_validation(self, build_system):
        system = build_system("gemini")
        with pytest.raises(ValueError):
            BandwidthDegradationInjector(system, events_per_day=0.0, factor=1.5)
        with pytest.raises(ValueError):
            BandwidthDegradationInjector(
                system, events_per_day=0.0, duration=-1.0
            )
        with pytest.raises(ValueError):
            BandwidthDegradationInjector(system, events_per_day=-1.0)


class TestStraggler:
    def test_window_scales_iterations_then_restores(self, build_system):
        system = build_system("gemini")
        injector = StragglerInjector(
            system, events_per_day=0.0, factor=2.0, duration=100.0
        )
        seen = {}
        system.sim.call_at(50.0, injector._strike)
        system.sim.call_at(100.0, lambda: seen.update(during=system.iteration_scale))
        system.sim.call_at(200.0, lambda: seen.update(after=system.iteration_scale))
        system.run(300.0)
        assert seen["during"] == 2.0
        assert seen["after"] == 1.0
        assert injector.injected[0]["degradation"] == "straggler"

    def test_one_window_at_a_time(self, build_system):
        system = build_system("gemini")
        injector = StragglerInjector(
            system, events_per_day=0.0, factor=2.0, duration=100.0
        )
        system.sim.call_at(50.0, injector._strike)
        system.sim.call_at(60.0, injector._strike)  # dropped: window open
        system.sim.call_at(200.0, injector._strike)  # window closed: lands
        system.run(400.0)
        assert len(injector.injected) == 2

    def test_straggler_slows_training(self, build_system):
        def final_iteration(factor):
            system = build_system("gemini")
            if factor is not None:
                injector = StragglerInjector(
                    system, events_per_day=0.0, factor=factor, duration=HOUR
                )
                system.sim.call_at(10.0, injector._strike)
            return system.run(2 * HOUR).final_iteration

        assert final_iteration(4.0) < final_iteration(None)

    def test_validation(self, build_system):
        system = build_system("gemini")
        with pytest.raises(ValueError):
            StragglerInjector(system, events_per_day=0.0, factor=1.0)


class TestReplicaCorruption:
    def test_coupled_corruption_forces_persistent_fallback(self, build_system):
        # Corrupt the victim's own CPU-memory replica and fail it in the
        # same instant: the recovery that follows cannot use CPU memory
        # (Section 6 fallback), even though every machine but the victim
        # is untouched.
        system = build_system("gemini")
        auditor = RecoveryInvariantAuditor(system)
        injector = ReplicaCorruptionInjector(
            system, events_per_day=0.0, scope="local", couple_failure=True
        )
        strike_at = 1 * HOUR  # checkpoints committed by then
        system.sim.call_at(strike_at, injector._strike)
        result = system.run(2 * HOUR)
        assert len(injector.failures) == 1
        assert injector.injected[0]["degradation"] == "corruption"
        records = [
            record
            for record in result.recoveries
            if record.failure_time == strike_at
        ]
        assert len(records) == 1
        assert not records[0].from_cpu_memory
        # The auditor must agree the fallback was the *correct* call.
        assert auditor.ok, [v.to_dict() for v in auditor.violations]

    def test_uncoupled_corruption_is_silent(self, build_system):
        system = build_system("gemini")
        injector = ReplicaCorruptionInjector(
            system, events_per_day=0.0, scope="set", couple_failure=False
        )
        system.sim.call_at(1 * HOUR, injector._strike)
        result = system.run(2 * HOUR)
        # Nothing died, nothing recovered — the damage is repaired by the
        # next per-iteration commit without anyone noticing.
        assert injector.failures == []
        assert len(injector.injected) == 1
        assert injector.injected[0]["scope"] == "set"
        assert len(injector.injected[0]["storers"]) > 1
        assert result.recoveries == []

    def test_noop_without_stores(self, build_system):
        system = build_system("strawman")
        injector = ReplicaCorruptionInjector(system, events_per_day=0.0)
        system.sim.call_at(1 * HOUR, injector._strike)
        system.run(2 * HOUR)
        assert injector.injected == []
        assert injector.failures == []

    def test_validation(self, build_system):
        system = build_system("gemini")
        with pytest.raises(ValueError):
            ReplicaCorruptionInjector(
                system, events_per_day=0.0, scope="global"
            )


def test_every_scenario_degradation_kind_has_an_injector():
    from repro.chaos.degrade import DEGRADERS
    from repro.experiments.scenario import DEGRADATION_KINDS

    assert tuple(sorted(DEGRADERS)) == DEGRADATION_KINDS

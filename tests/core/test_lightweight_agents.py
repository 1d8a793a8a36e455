"""Lightweight (fixed-delay) detection vs the full agent stack."""

import pytest

from repro.cluster import P4D_24XLARGE
from repro.training import GPT2_100B


class TestLightweightAgents:
    def test_lightweight_mode_matches_full_agents(self):
        """Fixed-delay detection gives the same recovery accounting as the
        full agent stack (to within the lease-granularity difference)."""
        from repro.core.system import GeminiConfig, GeminiSystem
        from repro.failures import FailureEvent, FailureType, TraceFailureInjector

        def run(use_agents):
            system = GeminiSystem(
                GPT2_100B, P4D_24XLARGE, 16,
                config=GeminiConfig(use_agents=use_agents, num_standby=1),
            )
            TraceFailureInjector(
                system.sim, system.cluster,
                [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
                system.inject_failure,
            )
            return system.run(3600.0)

        full = run(True)
        light = run(False)
        assert len(light.recoveries) == len(full.recoveries) == 1
        assert light.recoveries[0].total_overhead == pytest.approx(
            full.recoveries[0].total_overhead, abs=20
        )
        assert light.effective_ratio == pytest.approx(full.effective_ratio, abs=0.02)

    def test_lightweight_mode_is_cheaper(self):
        """Healthy heartbeats are analytic, so a failure-free hour of agent
        mode costs only each worker's first beat, the build-time election
        and the new leader's first (empty) scan on top of lightweight
        mode."""
        from repro.core.system import GeminiConfig, GeminiSystem

        def event_count(use_agents):
            system = GeminiSystem(
                GPT2_100B, P4D_24XLARGE, 16,
                config=GeminiConfig(use_agents=use_agents),
            )
            system.run(3600.0)
            return system.sim._seq

        assert event_count(True) == event_count(False) + 16 + 2

import pytest

from repro.chaos import ChaosScenario
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.experiments import create_policy
from repro.training import GPT2_100B


@pytest.fixture
def build_system():
    """Bare kernel factory (no auditor, no injectors attached)."""

    def build(policy_name="gemini", num_machines=16, seed=0, **kwargs):
        policy = create_policy(policy_name, use_agents=False)
        system = SimulatedTrainingSystem(
            GPT2_100B,
            P4D_24XLARGE,
            num_machines,
            policy,
            seed=seed,
            num_standby=2,
            **kwargs,
        )
        return system

    return build


@pytest.fixture
def make_scenario():
    """Small, fast chaos scenario with overridable fields."""

    def make(**overrides):
        base = dict(
            name="t",
            policy="gemini",
            failure_model="correlated",
            num_machines=16,
            failures_per_day=16.0,
            horizon_days=0.1,
            seeds=(0,),
            num_standby=2,
        )
        base.update(overrides)
        return ChaosScenario(**base)

    return make

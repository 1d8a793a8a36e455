"""Monte-Carlo DES cross-validation of the efficiency model.

Each point is a :class:`repro.experiments.Scenario` with Poisson failures;
its row carries the per-seed ``ratios``, their ``mean_ratio`` and the
``total_failures`` the injector delivered.
"""

import pytest

from repro.cluster import P4D_24XLARGE
from repro.experiments import Scenario
from repro.metrics.efficiency import effective_training_time_ratio
from repro.training import GPT2_100B, ShardingSpec, build_iteration_plan


def measure(policy, failures_per_day, horizon_days, seeds):
    return Scenario(
        name=f"{policy}-r{failures_per_day:g}",
        policy=policy,
        failures_per_day=failures_per_day,
        horizon_days=horizon_days,
        seeds=seeds,
    ).run()


@pytest.fixture(scope="module")
def workload():
    return (
        ShardingSpec(GPT2_100B, 16),
        build_iteration_plan(GPT2_100B, P4D_24XLARGE, 16),
    )


class TestMonteCarlo:
    def test_gemini_des_matches_analytic(self, workload):
        spec, plan = workload
        row = measure("gemini", 4, horizon_days=1.0, seeds=(0, 1))
        analytic = effective_training_time_ratio("gemini", spec, plan, 4)
        assert row["mean_ratio"] == pytest.approx(analytic, abs=0.03)

    def test_highfreq_des_matches_analytic(self, workload):
        spec, plan = workload
        row = measure("highfreq", 4, horizon_days=1.0, seeds=(0, 1))
        analytic = effective_training_time_ratio("highfreq", spec, plan, 4)
        assert row["mean_ratio"] == pytest.approx(analytic, abs=0.06)

    def test_zero_rate_means_zero_failures(self):
        row = measure("gemini", 0, horizon_days=0.5, seeds=(0,))
        assert row["total_failures"] == 0
        assert row["mean_ratio"] == pytest.approx(1.0, abs=0.01)

    def test_policy_ordering_preserved_in_des(self):
        results = {
            policy: measure(policy, 4, horizon_days=1.0, seeds=(0,))["mean_ratio"]
            for policy in ("gemini", "highfreq", "strawman")
        }
        assert results["gemini"] > results["highfreq"]
        assert results["gemini"] > results["strawman"]

    def test_seed_spread_reported(self):
        row = measure("gemini", 6, horizon_days=1.0, seeds=(0, 1, 2))
        assert len(row["ratios"]) == 3
        assert 0 <= max(row["ratios"]) - min(row["ratios"]) <= 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            measure("gemini", -1, horizon_days=2.0, seeds=(0, 1, 2))
        with pytest.raises(ValueError):
            measure("bogus", 1, horizon_days=2.0, seeds=(0, 1, 2))

"""Figure 15 cross-check: full-DES Monte-Carlo vs the analytic model.

The paper's Figure 15 is itself a simulation from measured per-failure
overheads; here we validate our analytic reproduction against the actual
discrete-event systems (GEMINI + baselines) with Poisson failure
injection across seeds.
"""


from benchmarks.conftest import run_once
from repro.cluster import P4D_24XLARGE
from repro.experiments import Scenario
from repro.harness import render_table
from repro.metrics.efficiency import effective_training_time_ratio
from repro.training import GPT2_100B, ShardingSpec, build_iteration_plan


def crosscheck():
    spec = ShardingSpec(GPT2_100B, 16)
    plan = build_iteration_plan(GPT2_100B, P4D_24XLARGE, 16)
    rows = []
    for policy in ("gemini", "highfreq", "strawman"):
        for rate in (2, 6):
            mc = Scenario(
                name=f"{policy}-r{rate:g}",
                policy=policy,
                failures_per_day=rate,
                horizon_days=1.5,
                seeds=(0, 1, 2),
            ).run()
            analytic = effective_training_time_ratio(policy, spec, plan, rate)
            rows.append(
                {
                    "policy": policy,
                    "failures_per_day": rate,
                    "des_ratio": mc["mean_ratio"],
                    "analytic_ratio": analytic,
                    "abs_error": abs(mc["mean_ratio"] - analytic),
                    "failures_observed": mc["total_failures"],
                }
            )
    return rows


def test_fig15_des_crosscheck(benchmark):
    rows = run_once(benchmark, crosscheck)
    print("\n" + render_table(rows, title="Figure 15 cross-check: DES vs analytic"))
    for row in rows:
        if row["policy"] == "strawman" and row["failures_per_day"] >= 6:
            # At high rates the linear per-failure model (the paper's own
            # Fig 15 methodology) over-counts Strawman's losses: failures
            # arriving inside one 3-hour rollback window share the lost
            # progress, so the DES measures a better ratio than the model
            # predicts.  The DES can only be *above* the linear estimate.
            assert row["des_ratio"] >= row["analytic_ratio"] - 0.02
            assert row["abs_error"] < 0.30
        else:
            # Stochastic DES within 8 points of the expected-value model.
            assert row["abs_error"] < 0.08
    # The DES preserves the policy ordering at every rate.
    for rate in (2, 6):
        at_rate = {r["policy"]: r["des_ratio"] for r in rows
                   if r["failures_per_day"] == rate}
        assert at_rate["gemini"] > at_rate["highfreq"]
        assert at_rate["gemini"] > at_rate["strawman"]

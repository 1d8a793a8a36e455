import pytest

from repro.training import MoESpec


def make(spec, **kwargs):
    defaults = dict(num_experts=16, expert_param_fraction=0.75, expert_update_period=4)
    defaults.update(kwargs)
    return MoESpec(spec, **defaults)


def test_round_robin_cadence_covers_every_expert(workload):
    spec, _ = workload
    moe = make(spec)
    seen = set()
    for iteration in range(1, 1 + moe.expert_update_period):
        updated = moe.experts_updated_at(iteration)
        assert len(updated) == moe.num_experts // moe.expert_update_period
        seen.update(updated)
    assert seen == set(range(moe.num_experts))


def test_cadence_is_deterministic(workload):
    spec, _ = workload
    moe = make(spec)
    assert moe.experts_updated_at(7) == moe.experts_updated_at(7)
    # pure function of iteration: same residue class, same experts
    assert moe.experts_updated_at(3) == moe.experts_updated_at(3 + 4)


def test_staleness_bound(workload):
    spec, _ = workload
    assert make(spec, expert_update_period=4).max_expert_staleness == 3
    assert make(spec, expert_update_period=1).max_expert_staleness == 0


def test_dirty_fractions(workload):
    spec, _ = workload
    moe = make(spec)  # 16 experts, period 4: 4 experts dirty per iteration
    assert moe.dirty_fraction(1) == pytest.approx(0.25 + 0.75 * 4 / 16)
    assert moe.mean_dirty_fraction() == pytest.approx(0.25 + 0.75 / 4)
    # mean over one period equals the closed form
    mean = sum(moe.dirty_fraction(k) for k in range(1, 5)) / 4
    assert mean == pytest.approx(moe.mean_dirty_fraction())
    assert moe.dirty_bytes_per_machine(1) == pytest.approx(
        spec.checkpoint_bytes_per_machine * moe.dirty_fraction(1)
    )


def test_validation(workload):
    spec, _ = workload
    with pytest.raises(ValueError):
        make(spec, num_experts=0)
    with pytest.raises(ValueError):
        make(spec, expert_param_fraction=1.0)
    with pytest.raises(ValueError):
        make(spec, expert_update_period=0)


@pytest.mark.parametrize("num_experts", (5, 16))
@pytest.mark.parametrize("period", (1, 3, 4, 7))
def test_policy_dirty_bytes_table_is_the_formula(period, num_experts):
    """The policy's per-residue table of shipped bytes reads exactly what
    the direct formula gives for every iteration of three periods."""
    from repro.cluster import P4D_24XLARGE
    from repro.core.kernel import SimulatedTrainingSystem
    from repro.experiments import create_policy
    from repro.training import GPT2_100B

    policy = create_policy(
        "sparse_moe", expert_update_period=period, num_experts=num_experts
    )
    SimulatedTrainingSystem(GPT2_100B, P4D_24XLARGE, 16, policy, seed=0)
    assert len(policy.shipped_by_residue) == period
    for iteration in range(3 * period):
        direct = policy.moe.dirty_bytes_per_machine(iteration)
        assert policy._shipped(iteration) == direct * 16 * policy.config.num_replicas

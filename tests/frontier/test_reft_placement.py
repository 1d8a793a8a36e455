import pytest

from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.placement import PlacementStrategy
from repro.experiments import create_policy
from repro.frontier import reft_placement
from repro.training import GPT2_100B


def test_replicas_stay_inside_their_stage():
    placement = reft_placement(16, 2, tensor_parallel=2, pipeline_parallel=2)
    assert placement.strategy is PlacementStrategy.RING
    assert len(placement.groups) == 4  # tp * pp stages
    for group in placement.groups:
        assert len(group) == 4  # dp peers per stage
        # stage membership: ranks congruent mod the stage count
        assert len({rank % 4 for rank in group}) == 1
    for rank in range(16):
        storers = placement.replica_sets[rank]
        assert rank in storers
        assert len(storers) == 2
        # every replica lands on a data-parallel peer (same stage)
        assert {peer % 4 for peer in storers} == {rank % 4}


def test_recoverability_by_failure_shape():
    placement = reft_placement(16, 2, tensor_parallel=2, pipeline_parallel=2)
    # single machine: the DP buddy holds the shard
    assert placement.recoverable([3])
    # one whole DP "row" (one machine per stage): each shard's buddy is
    # in a different row and survives
    assert placement.recoverable([0, 1, 2, 3])
    # a shard's full replica set: unrecoverable from CPU memory
    victims = sorted(placement.replica_sets[0])
    assert not placement.recoverable(victims)


def test_grid_validation():
    with pytest.raises(ValueError, match="tile"):
        reft_placement(10, 2, tensor_parallel=2, pipeline_parallel=2)
    with pytest.raises(ValueError, match="dp"):
        reft_placement(8, 4, tensor_parallel=2, pipeline_parallel=2)
    with pytest.raises(ValueError, match="tp and pp"):
        reft_placement(8, 2, tensor_parallel=0, pipeline_parallel=2)


def test_policy_configures_grid_placement():
    policy = create_policy("reft", tensor_parallel=2, pipeline_parallel=4)
    SimulatedTrainingSystem(GPT2_100B, P4D_24XLARGE, 16, policy, seed=0)
    assert len(policy.placement.groups) == 8
    assert all(len(group) == 2 for group in policy.placement.groups)

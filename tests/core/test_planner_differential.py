"""The recovery planner vs the per-rank scan it replaced.

``plan_recovery`` reads survivors' own slots in one pass, then looks up
peers only for the failed ranks, and hands out copies of per-placement
uniform retrieval tuples.  The oracle below is the planner as it was
before that change, kept verbatim: it walks every rank in order and
builds a fresh ``ShardRetrieval`` for each.  Both see the same stores
over group, ring, mixed, topology and REFT placements, random failed
sets of either type, corrupted slots, and survivors whose hardware died
after the failed set was taken (the replacement-barrier case).

The same drawn state is also built on a ``GeminiPolicy``'s stores, which
share a watermark: most slots hold it implicitly, and
``GeminiPolicy.plan_recovery`` reads survivors from the watermark and
the diverged stores alone.  Its plan must equal the oracle's, including
when a survivor's hardware died with no commit since.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, P4D_24XLARGE
from repro.core.placement import Placement, resolve_placement
from repro.core.recovery import (
    RecoveryPlan,
    RetrievalSource,
    ShardRetrieval,
    UnrecoverableError,
    plan_recovery,
    uniform_retrievals,
)
from repro.core.system import GeminiConfig, GeminiSystem
from repro.failures import FailureType
from repro.frontier.reft import reft_placement
from repro.storage import CPUCheckpointStore, PersistentStore
from repro.training import GPT2_10B
from repro.units import GB

#: the nightly CI job loads the registered ``agents-twin-nightly``
#: profile (tests/conftest.py); tier-1 runs each test's own budget.
_NIGHTLY = settings.get_profile("agents-twin-nightly")


def twin_examples(tier1: int) -> int:
    if settings.default.max_examples == _NIGHTLY.max_examples:
        return _NIGHTLY.max_examples
    return tier1


def oracle_plan_recovery(
    placement: Placement,
    stores: Dict[int, CPUCheckpointStore],
    persistent: PersistentStore,
    failure_type: FailureType,
    failed_ranks: List[int],
) -> RecoveryPlan:
    """Decide every rank's retrieval source and the rollback iteration.

    ``stores`` maps rank -> that machine's CPU checkpoint store (stores of
    hardware-failed machines are invalid and report no checkpoints).
    """
    n = placement.num_machines
    failed = set(failed_ranks)

    if failure_type is FailureType.SOFTWARE:
        # Hardware intact everywhere: every machine reloads its own local
        # replica (Figure 6b).
        iterations = [stores[rank].latest_complete(rank) for rank in range(n)]
        if all(it is not None for it in iterations):
            rollback = min(iterations)
            retrievals = [
                ShardRetrieval(rank=rank, source=RetrievalSource.LOCAL_CPU)
                for rank in range(n)
            ]
            return RecoveryPlan(
                failure_type=failure_type,
                failed_ranks=sorted(failed),
                retrievals=retrievals,
                rollback_iteration=rollback,
                from_cpu_memory=True,
            )
        return _oracle_persistent_plan(placement, persistent, failure_type, failed)

    # Hardware failure: can every lost shard be served by a survivor?
    retrievals: List[ShardRetrieval] = []
    iterations: List[int] = []
    for rank in range(n):
        if rank not in failed:
            own = stores[rank].latest_complete(rank)
            if own is None:
                return _oracle_persistent_plan(placement, persistent, failure_type, failed)
            iterations.append(own)
            retrievals.append(ShardRetrieval(rank=rank, source=RetrievalSource.LOCAL_CPU))
            continue
        peers = [
            peer
            for peer in placement.storers_of(rank)
            if peer != rank
            and peer not in failed
            and stores[peer].latest_complete(rank) is not None
        ]
        if not peers:
            # Case 2: a whole placement group failed together.
            return _oracle_persistent_plan(placement, persistent, failure_type, failed)
        peer = min(peers)
        iterations.append(stores[peer].latest_complete(rank))
        retrievals.append(
            ShardRetrieval(rank=rank, source=RetrievalSource.REMOTE_CPU, peer=peer)
        )
    return RecoveryPlan(
        failure_type=failure_type,
        failed_ranks=sorted(failed),
        retrievals=retrievals,
        rollback_iteration=min(iterations),
        from_cpu_memory=True,
    )


def _oracle_persistent_plan(
    placement: Placement,
    persistent: PersistentStore,
    failure_type: FailureType,
    failed: set,
) -> RecoveryPlan:
    rollback = persistent.latest_complete()
    if rollback is None:
        raise UnrecoverableError(
            "no complete checkpoint in persistent storage and CPU-memory "
            "replicas are unavailable"
        )
    retrievals = [
        ShardRetrieval(rank=rank, source=RetrievalSource.PERSISTENT)
        for rank in range(placement.num_machines)
    ]
    return RecoveryPlan(
        failure_type=failure_type,
        failed_ranks=sorted(failed),
        retrievals=retrievals,
        rollback_iteration=rollback,
        from_cpu_memory=False,
    )


def make_placement(kind: str, n: int, m: int, rack: int) -> Placement:
    if kind == "reft":
        return reft_placement(n, m, tensor_parallel=2, pipeline_parallel=1)
    domains = [list(range(start, min(start + rack, n))) for start in range(0, n, rack)]
    return resolve_placement(kind, n, m, domains=domains)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["group", "ring", "mixed", "topology", "reft"]))
    if kind == "reft":
        # tp=2, pp=1: two stages of dp = n/2 members each.
        m = draw(st.integers(min_value=1, max_value=3))
        n = 2 * draw(st.integers(min_value=m, max_value=5))
    elif kind == "group":
        m = draw(st.integers(min_value=1, max_value=3))
        n = m * draw(st.integers(min_value=1, max_value=4))
    else:
        n = draw(st.integers(min_value=1, max_value=10))
        m = draw(st.integers(min_value=1, max_value=min(n, 3)))
    rack = draw(st.integers(min_value=1, max_value=4))
    placement = make_placement(kind, n, m, rack)
    ranks = st.integers(min_value=0, max_value=n - 1)
    return {
        "placement": placement,
        "failure_type": draw(st.sampled_from(list(FailureType))),
        "failed": draw(st.lists(ranks, max_size=n)),
        # Survivors whose hardware died after the failed set was taken.
        "late_dead": draw(st.lists(ranks, max_size=1)),
        # Failed ranks already swapped for a fresh (empty) store.
        "replaced": draw(st.lists(ranks, max_size=n)),
        # Failed ranks of a hardware failure whose process died instead:
        # their stores stay valid but must not serve as peers.
        "process_down": draw(st.lists(ranks, max_size=n)),
        # The iteration most slots hold (the policy's watermark) ...
        "watermark": draw(st.integers(10, 16)),
        # ... the completed iteration of every hosted slot, storer-major,
        # where None keeps the watermark ...
        "iterations": draw(
            st.lists(
                st.one_of(st.none(), st.integers(10, 16)),
                min_size=n * m,
                max_size=n * m,
            )
        ),
        # ... and the slots then corrupted (indices into that order).
        "corrupt": draw(st.lists(st.integers(0, n * m - 1), max_size=2)),
        "persistent": draw(st.sampled_from([12, 5, 20, None])),
    }


def build(scenario):
    """Cluster, stores and persistent tier in the drawn state."""
    placement = scenario["placement"]
    n = placement.num_machines
    cluster = Cluster(n, P4D_24XLARGE)
    stores = {}
    slots = []
    for machine in cluster:
        store = CPUCheckpointStore(machine)
        for owner in placement.hosted_by(machine.rank):
            store.host_shard(owner, GB)
            slots.append((store, owner))
        stores[machine.rank] = store
    for (store, owner), iteration in zip(slots, scenario["iterations"]):
        iteration = scenario["watermark"] if iteration is None else iteration
        store.begin_write(owner, iteration)
        store.commit_write(owner, iteration)
    return fail(scenario, cluster, stores, slots, CPUCheckpointStore)


def build_on_plane(scenario):
    """The drawn state on a ``GeminiPolicy``'s watermark-backed stores."""
    placement = scenario["placement"]
    system = GeminiSystem(
        GPT2_10B,
        P4D_24XLARGE,
        placement.num_machines,
        config=GeminiConfig(use_agents=False, num_replicas=placement.num_replicas),
        placement=placement,
    )
    policy = system.policy
    policy.commit_checkpoint(scenario["watermark"])
    slots = [
        (policy.stores[storer], owner)
        for storer in range(placement.num_machines)
        for owner in placement.hosted_by(storer)
    ]
    for (store, owner), iteration in zip(slots, scenario["iterations"]):
        if iteration is not None:
            store.slot(owner).completed_iteration = iteration
    _placement, _stores, persistent, _failed = fail(
        scenario,
        system.cluster,
        policy.stores,
        slots,
        lambda machine: CPUCheckpointStore(machine, plane=policy.plane),
    )
    system.persistent = persistent
    return policy


def through_policy(policy):
    """``policy.plan_recovery`` called with the planner's signature."""
    return lambda _placement, _stores, _persistent, failure_type, failed: (
        policy.plan_recovery(failure_type, failed)
    )


def fail(scenario, cluster, stores, slots, new_store):
    """Corrupt, fail, replace and late-kill as drawn; build the persistent
    tier.  ``new_store(machine)`` builds a replacement's empty store."""
    placement = scenario["placement"]
    n = placement.num_machines
    for index in scenario["corrupt"]:
        store, owner = slots[index]
        store.corrupt_shard(owner)
    failed = sorted(set(scenario["failed"]))
    if scenario["failure_type"] is FailureType.HARDWARE:
        process_down = set(scenario["process_down"])
        for rank in failed:
            machine = cluster.machine(rank)
            if rank in process_down:
                machine.mark_process_down()
            else:
                machine.mark_failed()
        for rank in sorted(set(scenario["replaced"]) & set(failed) - process_down):
            machine = cluster.replace(rank)
            store = new_store(machine)
            for owner in placement.hosted_by(rank):
                store.host_shard(owner, GB)
            stores[rank] = store
    else:
        for rank in failed:
            cluster.machine(rank).mark_process_down()
    for rank in scenario["late_dead"]:
        machine = cluster.machine(rank)
        if machine.hardware_alive:
            machine.mark_failed()
    persistent = PersistentStore(n)
    if scenario["persistent"] is not None:
        for rank in range(n):
            persistent.put_shard(rank, scenario["persistent"])
    return placement, stores, persistent, scenario["failed"]


def outcome(planner, placement, stores, persistent, failure_type, failed):
    try:
        plan = planner(placement, stores, persistent, failure_type, list(failed))
    except UnrecoverableError as exc:
        return ("unrecoverable", str(exc))
    return (
        plan.retrievals,
        plan.rollback_iteration,
        plan.from_cpu_memory,
        plan.failed_ranks,
        plan.failure_type,
    )


class TestPlannerDifferential:
    @given(scenario=scenarios())
    @settings(max_examples=twin_examples(300), deadline=None)
    def test_matches_per_rank_oracle(self, scenario):
        placement, stores, persistent, failed = build(scenario)
        failure_type = scenario["failure_type"]
        expected = outcome(
            oracle_plan_recovery, placement, stores, persistent, failure_type, failed
        )
        assert outcome(
            plan_recovery, placement, stores, persistent, failure_type, failed
        ) == expected
        assert outcome(
            through_policy(build_on_plane(scenario)),
            placement, stores, persistent, failure_type, failed,
        ) == expected
        # A plan owns its retrievals list: mutating it (as a caller may)
        # leaves the next plan over the same placement unchanged.
        try:
            plan = plan_recovery(placement, stores, persistent, failure_type, failed)
        except UnrecoverableError:
            return
        plan.retrievals[0] = ShardRetrieval(rank=0, source=RetrievalSource.SSD)
        plan.retrievals.append(plan.retrievals[-1])
        assert outcome(
            plan_recovery, placement, stores, persistent, failure_type, failed
        ) == expected

    @pytest.mark.parametrize(
        "source", [RetrievalSource.LOCAL_CPU, RetrievalSource.PERSISTENT]
    )
    def test_uniform_plans_are_fresh_lists_of_shared_retrievals(self, source):
        placement, stores, persistent, _ = build(
            {
                "placement": make_placement("mixed", 5, 2, 1),
                "failure_type": FailureType.SOFTWARE,
                "failed": [],
                "late_dead": [],
                "replaced": [],
                "process_down": [],
                "iterations": [20] * 10,
                "corrupt": [] if source is RetrievalSource.LOCAL_CPU else [0],
                "persistent": 3,
            }
        )
        first, second = (
            plan_recovery(placement, stores, persistent, FailureType.SOFTWARE, [])
            for _ in range(2)
        )
        assert {r.source for r in first.retrievals} == {source}
        assert first.retrievals == second.retrievals
        assert first.retrievals is not second.retrievals
        # Any plan for the same number of ranks shares the retrievals.
        other = uniform_retrievals(5, source)
        assert all(mine is theirs for mine, theirs in zip(first.retrievals, other))

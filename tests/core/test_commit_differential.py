"""Watermark checkpoint commit and rollback settle vs the per-slot protocol.

``GeminiPolicy.commit_checkpoint`` raises the stores' shared watermark,
which every clean store's slots hold, and calls
``CPUCheckpointStore.commit_all`` on the diverged stores only;
``_reconstitute_after`` does the same with ``settle_at_rollback``.  The
oracle here is the per-slot loop they replace: for every (owner, storer)
pair of the placement, skip unhealthy storers (unless replayed as
healthy) and invalid stores, skip slots already at or past the
iteration, then ``begin_write`` + ``commit_write``; at rollback,
``abort_write`` any in-progress slot and raise older ones to the
rollback iteration.

Two identical systems receive the same random operations: one through
the policy, one through the oracle.  Replacement stores are built as
``GeminiPolicy._provision`` builds them, on the policy's plane.  Every slot
of every store must agree after each step, read without diverging a
clean store.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, P4D_24XLARGE
from repro.core.system import GeminiConfig, GeminiSystem
from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.storage import CPUCheckpointStore, StorePlane
from repro.training import GPT2_10B
from repro.units import GB

CPU_CKPT_COUNTERS = ("repro_cpu_ckpt_commits_total", "repro_cpu_ckpt_bytes_total")

#: the nightly CI job loads the registered ``agents-twin-nightly``
#: profile (tests/conftest.py); tier-1 runs each test's own budget.
_NIGHTLY = settings.get_profile("agents-twin-nightly")


def twin_examples(tier1: int) -> int:
    if settings.default.max_examples == _NIGHTLY.max_examples:
        return _NIGHTLY.max_examples
    return tier1


def oracle_commit(system, iteration, assume_healthy=()):
    """The per-slot commit loop (rank-major, six calls per pair)."""
    for rank in range(system.cluster.size):
        for storer in system.policy.placement.storers_of(rank):
            machine = system.cluster.machine(storer)
            if not (machine.is_healthy or storer in assume_healthy):
                continue
            store = system.policy.stores[storer]
            if not store.valid:
                continue
            latest = store.latest_complete(rank)
            if latest is not None and latest >= iteration:
                continue
            store.begin_write(rank, iteration)
            store.commit_write(rank, iteration)


def oracle_settle(system, rollback):
    """The per-slot rollback settle."""
    for store in system.policy.stores.values():
        if not store.valid:
            continue
        for owner in store.hosted_ranks():
            slot = store.slot(owner)
            if slot.in_progress_iteration is not None:
                store.abort_write(owner)
            if slot.completed_iteration is None or slot.completed_iteration < rollback:
                slot.completed_iteration = rollback


def oracle_hosted(placement, rank):
    return [o for o, storers in enumerate(placement.replica_sets) if rank in storers]


def build(num_machines, num_replicas, strategy, obs=None):
    config = GeminiConfig(
        use_agents=False, num_replicas=num_replicas, placement_strategy=strategy
    )
    return GeminiSystem(GPT2_10B, P4D_24XLARGE, num_machines, config=config, obs=obs)


def slot_view(store, watermark):
    """``(owner, completed, in_progress)`` per hosted slot; a clean store's
    slots hold the watermark and are read without diverging it."""
    if store.clean:
        return [(owner, watermark, None) for owner in store.hosted_ranks()]
    return [
        (
            owner,
            store.slot(owner).completed_iteration,
            store.slot(owner).in_progress_iteration,
        )
        for owner in store.hosted_ranks()
    ]


def slot_states(system):
    watermark = system.policy.plane.watermark
    return {
        rank: (store.valid, slot_view(store, watermark))
        for rank, store in system.policy.stores.items()
    }


def assert_plane_consistent(system):
    """``plane.diverged`` lists exactly the installed stores not clean."""
    stores = system.policy.stores
    diverged = system.policy.plane.diverged
    assert sorted(diverged) == sorted(r for r, s in stores.items() if not s.clean)
    assert all(diverged[rank] is stores[rank] for rank in diverged)


def cpu_ckpt_lines(system):
    return [
        line
        for line in to_prometheus(system.obs.metrics).splitlines()
        if line.startswith(CPU_CKPT_COUNTERS)
    ]


def apply(op, bulk, oracle, state):
    """Apply one operation to both systems; ``state`` tracks the iteration."""
    kind, a, b = op
    n = bulk.cluster.size
    rank = a % n
    machines = (bulk.cluster.machine(rank), oracle.cluster.machine(rank))
    if kind == "commit":
        state["iteration"] += 1 + a % 3
        down = [r for r in range(n) if not bulk.cluster.machine(r).is_healthy]
        # A replayed boundary: some down ranks still count as healthy storers.
        assume = tuple(r for i, r in enumerate(down) if b >> i & 1)
        bulk.policy.commit_checkpoint(state["iteration"], assume_healthy=assume)
        oracle_commit(oracle, state["iteration"], assume_healthy=assume)
    elif kind == "hardware":
        for machine in machines:
            machine.mark_failed()
    elif kind == "software":
        for machine in machines:
            if machine.is_healthy:
                machine.mark_process_down()
    elif kind == "restart":
        for machine in machines:
            if machine.state.name == "PROCESS_DOWN":
                machine.restart_process()
    elif kind == "replace":
        if machines[0].hardware_alive:
            return
        shard = bulk.spec.checkpoint_bytes_per_machine
        for system, hosted in (
            (bulk, bulk.policy.placement.hosted_by(rank)),
            (oracle, oracle_hosted(oracle.policy.placement, rank)),
        ):
            machine = system.cluster.replace(rank)
            store = CPUCheckpointStore(
                machine, obs=system.obs, plane=system.policy.plane
            )
            for owner in hosted:
                store.host_shard(owner, shard)
            system.policy.stores[rank] = store
    elif kind == "corrupt":
        for system in (bulk, oracle):
            store = system.policy.stores[rank]
            if store.valid:
                hosted = store.hosted_ranks()
                store.corrupt_shard(hosted[b % len(hosted)])
    elif kind == "rollback":
        # A write interrupted by the failure, then the recovery's settle.
        for system in (bulk, oracle):
            store = system.policy.stores[rank]
            if store.valid:
                owner = store.hosted_ranks()[b % len(store.hosted_ranks())]
                newest = max(state["iteration"], store.latest_complete(owner) or 0)
                store.begin_write(owner, newest + 1)
        # Usually behind the last commit; one in five lands past it.
        rollback = max(0, state["iteration"] + 1 - b % 5)
        bulk.policy._reconstitute_after(SimpleNamespace(rollback_iteration=rollback))
        oracle_settle(oracle, rollback)
        state["iteration"] = rollback
    else:  # pragma: no cover - strategy and dispatch out of sync
        raise AssertionError(kind)


ops = st.tuples(
    st.sampled_from(
        [
            "commit",
            "commit",
            "commit",
            "hardware",
            "software",
            "restart",
            "replace",
            "corrupt",
            "rollback",
        ]
    ),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)


class TestDifferential:
    @given(
        shape=st.sampled_from(
            [
                (4, 2, "group"),
                (6, 3, "group"),
                (5, 2, "mixed"),
                (7, 3, "mixed"),
                (6, 2, "ring"),
                (4, 1, "mixed"),
            ]
        ),
        steps=st.lists(ops, min_size=1, max_size=25),
    )
    @settings(max_examples=twin_examples(60), deadline=None)
    def test_bulk_matches_per_slot_oracle(self, shape, steps):
        n, m, strategy = shape
        bulk, oracle = build(n, m, strategy), build(n, m, strategy)
        state = {"iteration": 0}
        assert slot_states(bulk) == slot_states(oracle)
        for op in steps:
            apply(op, bulk, oracle, state)
            assert slot_states(bulk) == slot_states(oracle), op
            assert_plane_consistent(bulk)

    @given(steps=st.lists(ops, min_size=1, max_size=15))
    @settings(max_examples=twin_examples(15), deadline=None)
    def test_commit_metrics_byte_identical(self, steps):
        bulk = build(5, 2, "mixed", obs=Observability())
        oracle = build(5, 2, "mixed", obs=Observability())
        state = {"iteration": 0}
        for op in steps:
            apply(op, bulk, oracle, state)
        assert cpu_ckpt_lines(bulk) == cpu_ckpt_lines(oracle)
        assert len(cpu_ckpt_lines(bulk)) == 2  # iteration 0 was committed


@pytest.fixture
def machine():
    return Machine("m0", 0, P4D_24XLARGE)


@pytest.fixture
def store(machine):
    store = CPUCheckpointStore(machine)
    store.host_shard(rank=0, nbytes=GB)
    store.host_shard(rank=1, nbytes=GB)
    return store


class TestCommitAll:
    def test_commits_every_older_slot(self, store):
        store.commit_all(3)
        assert [store.latest_complete(r) for r in (0, 1)] == [3, 3]
        assert store.slot(0).in_progress_iteration is None

    def test_leaves_newer_slots_alone(self, store):
        store.begin_write(1, 9)
        store.commit_write(1, 9)
        store.commit_all(5)
        assert [store.latest_complete(r) for r in (0, 1)] == [5, 9]

    def test_raises_on_in_progress_slot(self, store):
        store.begin_write(1, 4)
        with pytest.raises(RuntimeError, match="still in progress"):
            store.commit_all(5)

    def test_in_progress_slot_at_or_past_iteration_is_not_touched(self, store):
        # begin_write is never reached for a slot already at the iteration,
        # so neither path raises for it.
        store.commit_all(5)
        store.begin_write(1, 6)
        store.commit_all(5)
        assert store.slot(1).in_progress_iteration == 6

    def test_raises_on_invalid_store(self, machine, store):
        machine.mark_failed()
        with pytest.raises(RuntimeError, match="invalid"):
            store.commit_all(1)

    def test_repairs_corrupted_slot(self, store):
        store.commit_all(5)
        store.corrupt_shard(0)
        store.commit_all(6)
        assert store.latest_complete(0) == 6


class TestSettleAtRollback:
    def test_discards_in_progress_and_raises_older_slots(self, store):
        store.commit_all(2)
        store.begin_write(0, 3)
        store.corrupt_shard(1)
        store.settle_at_rollback(2)
        assert [store.slot(r).completed_iteration for r in (0, 1)] == [2, 2]
        assert store.slot(0).in_progress_iteration is None

    def test_keeps_newer_completed_slots(self, store):
        store.commit_all(7)
        store.settle_at_rollback(4)
        assert store.latest_complete(0) == 7

    def test_raises_on_invalid_store(self, machine, store):
        machine.mark_failed()
        with pytest.raises(RuntimeError, match="invalid"):
            store.settle_at_rollback(1)


class TestStorePlane:
    """The clean/diverged life cycle of a policy's stores."""

    @pytest.fixture
    def system(self):
        return build(5, 2, "mixed")

    def test_stores_start_clean_at_the_seed_commit(self, system):
        plane = system.policy.plane
        assert plane.watermark == 0 and not plane.diverged
        assert all(store.clean for store in system.policy.stores.values())
        system.policy.commit_checkpoint(4)
        assert plane.watermark == 4 and not plane.diverged
        assert system.policy.stores[3].latest_complete(3) == 4

    def test_down_store_freezes_then_rejoins(self, system):
        policy = system.policy
        system.cluster.machine(2).mark_process_down()
        policy.commit_checkpoint(6)
        store = policy.stores[2]
        assert not store.clean and policy.plane.diverged == {2: store}
        assert [store.latest_complete(r) for r in store.hosted_ranks()] == [0, 0]
        system.cluster.machine(2).restart_process()
        policy.commit_checkpoint(7)
        assert store.clean and not policy.plane.diverged
        assert store.latest_complete(2) == 7

    def test_replayed_storer_takes_the_commit_while_down(self, system):
        policy = system.policy
        system.cluster.machine(3).mark_process_down()
        policy.commit_checkpoint(5, assume_healthy=(3,))
        assert policy.stores[3].clean
        policy.commit_checkpoint(6)
        assert not policy.stores[3].clean
        assert policy.stores[3].latest_complete(3) == 5

    def test_corrupted_shard_diverges_until_repaired(self, system):
        policy = system.policy
        policy.stores[1].corrupt_shard(1)
        assert policy.stores[1].latest_complete(1) is None
        assert policy.stores[1].latest_complete(0) == 0
        policy.commit_checkpoint(3)
        assert policy.stores[1].clean and policy.stores[1].latest_complete(1) == 3

    def test_rollback_settle_rejoins_at_the_watermark(self, system):
        policy = system.policy
        policy.commit_checkpoint(8)
        policy.stores[4].begin_write(4, 9)
        policy._reconstitute_after(SimpleNamespace(rollback_iteration=6))
        assert policy.plane.watermark == 8 and not policy.plane.diverged
        assert policy.stores[4].slot(4).in_progress_iteration is None

    def test_store_built_after_the_first_commit_starts_empty(self, system):
        plane = system.policy.plane
        system.cluster.machine(0).mark_failed()
        machine = system.cluster.replace(0)
        store = CPUCheckpointStore(machine, plane=plane)
        store.host_shard(0, GB)
        assert not store.clean and plane.diverged[0] is store
        assert store.latest_complete(0) is None
        early = CPUCheckpointStore(Machine("mx", 7, P4D_24XLARGE), plane=StorePlane())
        early.host_shard(7, GB)
        assert early.clean and early.latest_complete(7) is None

    def test_writing_a_slot_diverges_a_clean_store(self, system):
        store = system.policy.stores[0]
        (peer,) = [owner for owner in store.hosted_ranks() if owner != 0]
        store.slot(0).completed_iteration = 9
        assert not store.clean
        assert store.latest_complete(0) == 9 and store.latest_complete(peer) == 0

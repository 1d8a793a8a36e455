"""Per-store checkpoint commit and rollback settle vs the per-slot protocol.

``GeminiPolicy.commit_checkpoint`` commits each store's hosted slots in
one ``CPUCheckpointStore.commit_all`` call, and ``_reconstitute_after``
settles each store with one ``settle_at_rollback`` call.  The oracle here
is the per-slot loop they replace: for every (owner, storer) pair of the
placement, skip unhealthy storers (unless replayed as healthy) and
invalid stores, skip slots already at or past the iteration, then
``begin_write`` + ``commit_write``; at rollback, ``abort_write`` any
in-progress slot and raise older ones to the rollback iteration.

Two identical systems receive the same random operations: one through
the policy, one through the oracle.  Every slot of every store must
agree after each step.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, P4D_24XLARGE
from repro.core.system import GeminiConfig, GeminiSystem
from repro.obs import Observability
from repro.obs.export import to_prometheus
from repro.storage import CPUCheckpointStore
from repro.training import GPT2_10B
from repro.units import GB

CPU_CKPT_COUNTERS = ("repro_cpu_ckpt_commits_total", "repro_cpu_ckpt_bytes_total")


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


def slot_states(system):
    return {
        rank: (
            store.valid,
            [
                (
                    owner,
                    store.slot(owner).completed_iteration,
                    store.slot(owner).in_progress_iteration,
                )
                for owner in store.hosted_ranks()
            ],
        )
        for rank, store in system.policy.stores.items()
    }


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
            store = CPUCheckpointStore(machine, obs=system.obs)
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
        rollback = max(0, state["iteration"] - b % 4)
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
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_per_slot_oracle(self, shape, steps):
        n, m, strategy = shape
        bulk, oracle = build(n, m, strategy), build(n, m, strategy)
        state = {"iteration": 0}
        assert slot_states(bulk) == slot_states(oracle)
        for op in steps:
            apply(op, bulk, oracle, state)
            assert slot_states(bulk) == slot_states(oracle), op

    @given(steps=st.lists(ops, min_size=1, max_size=15))
    @settings(max_examples=15, deadline=None)
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

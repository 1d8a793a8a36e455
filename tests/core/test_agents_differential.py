"""Analytic heartbeat leases vs the materialized heartbeat/scan loops.

``repro.core.agents`` keeps healthy heartbeats, lease refreshes and empty
scans arithmetic.  The oracle here is the loop it replaced: every worker
refreshes its lease and re-puts its health key on a chained
``sim.timeout(h)``, every root agent refreshes its lease and, while it
holds the election key, scans the health map on the same chain, and each
lease re-arms one expiry callback at a time.  Those two classes live only
in this file.

Two comparisons:

- *System twin.*  The same failure schedule runs through the kernel's
  ``FailureDetector`` (analytic agents, macro ticks on) and through a
  kernel whose detector spawns the materialized agents and which steps
  every iteration, as agent mode did before leases went analytic.  ``dataclasses.asdict(SystemResult)``,
  the full trace JSONL and ``leader_rank`` at every recovery and at the
  end must be identical.
- *Agent twin.*  Bare agents on a bare simulator, driven by the same
  random operations (machine kills armed at build or made between two
  runs, restarts, replacements, respawns, ``mark_handled``); the
  detections, the leader and the live health keys must agree after
  every step.

The named tie classes:

1. a failure armed at build that lands on a beat/scan instant goes
   before that instant's beat (``test_tie_failure_on_grid_instant``);
2. a bare ``mark_failed()`` between two ``sim.run`` calls comes after
   that instant's beat (the agent twin's ``fail`` operation);
3. a lease expiring at a leader-scan instant goes before the scan (every
   on-grid failure: expiry and scans share the 5 s grid);
4. a recovery ending, and respawning agents, on a scan instant
   (``test_tie_recovery_ends_on_scan_instant``);
5. leader death and re-election in campaign order, including a dead
   candidate whose lease has not expired yet
   (``test_tie_reelection_order``);
6. failures during a recovery, before and after ``mark_handled``
   (``test_tie_failure_during_recovery``).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, P4D_24XLARGE
from repro.core.agents import (
    HEALTH_PREFIX,
    ROOT_ELECTION_KEY,
    DetectedFailure,
    FailureDetector,
    RootAgent,
    WorkerAgent,
)
from repro.core.kernel import KernelListener, SimulatedTrainingSystem
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.core.recovery import RecoveryCostModel
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.kvstore import Election, KVStore, Lease
from repro.sim import Simulator
from repro.storage.serialization import SerializationModel
from repro.training import GPT2_10B

HEARTBEAT = 5.0
#: a heartbeat whose chained sums drift from ``t0 + k * h`` (with an
#: integer interval they never do).
ODD_HEARTBEAT = 4.7
NUM_MACHINES = 4
HORIZON = 7200.0

#: tier-1 budget; the nightly CI job loads the registered
#: ``agents-twin-nightly`` profile (tests/conftest.py) instead.
_NIGHTLY = settings.get_profile("agents-twin-nightly")
TWIN_EXAMPLES = (
    _NIGHTLY.max_examples
    if settings.default.max_examples == _NIGHTLY.max_examples
    else 10
)


# ------------------------------------------------------------ the oracle


class MaterializedWorkerAgent:
    """A worker that materializes every heartbeat as a timer event."""

    def __init__(self, sim, store, cluster, rank, heartbeat_interval, lease_ttl):
        self.sim = sim
        self.store = store
        self.cluster = cluster
        self.rank = rank
        self.heartbeat_interval = heartbeat_interval
        self.lease_ttl = lease_ttl
        self.lease: Optional[Lease] = None
        self._stopped = False
        self._process = sim.process(self._heartbeat_loop(), name=f"worker-agent-{rank}")

    @property
    def health_key(self) -> str:
        return f"{HEALTH_PREFIX}{self.rank}"

    def _heartbeat_loop(self):
        machine = self.cluster.machine(self.rank)
        self.lease = self.store.grant_lease(self.lease_ttl)
        while not self._stopped:
            current = self.cluster.machine(self.rank)
            if current is not machine or not current.is_healthy:
                return
            self.lease.refresh()
            self.store.put(
                self.health_key,
                {"machine_id": current.machine_id, "time": self.sim.now},
                lease=self.lease,
            )
            yield self.sim.timeout(self.heartbeat_interval)


class MaterializedRootAgent:
    """A root agent that refreshes and scans on every interval."""

    def __init__(
        self, sim, store, cluster, rank, election, on_failure_detected,
        scan_interval, lease_ttl,
    ):
        self.sim = sim
        self.store = store
        self.cluster = cluster
        self.rank = rank
        self.on_failure_detected = on_failure_detected
        self.scan_interval = scan_interval
        self._stopped = False
        self._being_handled: Set[int] = set()
        self.election = election
        self._lease = store.grant_lease(lease_ttl)
        self._candidacy = self.election.campaign(f"rank-{rank}", self._lease)
        self._process = sim.process(self._scan_loop(), name=f"root-agent-{rank}")

    @property
    def is_leader(self) -> bool:
        return self.election.leader() == f"rank-{self.rank}"

    def mark_handled(self, ranks) -> None:
        self._being_handled -= set(ranks)

    def _scan_loop(self):
        yield self.sim.timeout(self.scan_interval)
        while not self._stopped:
            machine = self.cluster.machine(self.rank)
            if not machine.is_healthy:
                return
            self._lease.refresh()
            if self.is_leader:
                self._scan_once()
            yield self.sim.timeout(self.scan_interval)

    def _scan_once(self) -> None:
        healthy_keys = self.store.get_prefix(HEALTH_PREFIX)
        present = {int(key[len(HEALTH_PREFIX):]) for key in healthy_keys}
        missing = [
            rank
            for rank in range(self.cluster.size)
            if rank not in present and rank not in self._being_handled
        ]
        if missing:
            self._being_handled.update(missing)
            self.on_failure_detected(
                DetectedFailure(detected_at=self.sim.now, missing_ranks=missing)
            )


class MaterializedDetector(FailureDetector):
    """The kernel's agent-mode detector spawning the chained loops above."""

    def spawn(self, rank: int) -> None:
        kernel = self.kernel
        self.worker_agents[rank] = MaterializedWorkerAgent(  # type: ignore[assignment]
            kernel.sim, self.kvstore, kernel.cluster, rank,
            self.heartbeat_interval, self.lease_ttl,
        )
        self.root_agents[rank] = MaterializedRootAgent(  # type: ignore[assignment]
            kernel.sim, self.kvstore, kernel.cluster, rank, self.election,
            kernel.begin_recovery, self.heartbeat_interval, self.lease_ttl,
        )


class MaterializedSystem(SimulatedTrainingSystem):
    """Agent mode as it ran with materialized heartbeats: the chained
    loops above, and no macro ticks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, macro_ticks=False, **kwargs)

    def _detector(self):
        policy = self.policy
        return MaterializedDetector(
            self, True, policy.heartbeat_interval, policy.lease_ttl
        )


# ------------------------------------------------------------ system twin


class _LeaderLog(KernelListener):
    def __init__(self, system):
        self.system = system
        self.leaders: List[Optional[int]] = []

    def on_recovery_complete(self, record) -> None:
        self.leaders.append(self.system.detector.leader_rank)


def run_system(
    system_cls, failures, *, cost_model=None, num_standby=1, seed=0,
    heartbeat=HEARTBEAT,
):
    """Everything one run produced, in comparable form."""
    config = GeminiConfig(
        num_standby=num_standby, seed=seed, heartbeat_interval=heartbeat
    )
    if cost_model is not None:
        config.cost_model = cost_model
    system = system_cls(
        GPT2_10B,
        P4D_24XLARGE,
        NUM_MACHINES,
        GeminiPolicy(config),
        seed=seed,
        num_standby=num_standby,
        persistent_bandwidth=config.persistent_bandwidth,
        cost_model=config.cost_model,
    )
    log = _LeaderLog(system)
    system.add_listener(log)
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(t, FailureType(kind), list(ranks)) for t, kind, ranks in failures],
        system.inject_failure,
    )
    result = system.run(HORIZON)
    return (
        dataclasses.asdict(result),
        system.trace.to_jsonl(),
        log.leaders,
        system.detector.leader_rank,
    )


def assert_twins_agree(failures, **kwargs):
    analytic = run_system(SimulatedTrainingSystem, failures, **kwargs)
    materialized = run_system(MaterializedSystem, failures, **kwargs)
    assert analytic[0] == materialized[0]
    assert analytic[1] == materialized[1]
    assert analytic[2:] == materialized[2:]
    return analytic


on_grid = st.integers(min_value=40, max_value=1300).map(lambda k: k * HEARTBEAT)
off_grid = st.floats(min_value=200.0, max_value=6500.0, allow_nan=False)
failures_strategy = st.lists(
    st.tuples(
        st.one_of(on_grid, off_grid),
        st.sampled_from(["hardware", "software"]),
        st.lists(
            st.integers(0, NUM_MACHINES - 1), min_size=1, max_size=2, unique=True
        ).map(tuple),
    ),
    min_size=1,
    max_size=4,
    # Two failures delivered at one instant trip the kernel's
    # training-abort event twice, with or without agents.
    unique_by=lambda failure: failure[0],
)


@settings(max_examples=TWIN_EXAMPLES, deadline=None)
@given(
    failures=failures_strategy,
    standby=st.integers(0, 2),
    heartbeat=st.sampled_from([HEARTBEAT, ODD_HEARTBEAT]),
)
def test_system_twin_random_schedules(failures, standby, heartbeat):
    assert_twins_agree(failures, num_standby=standby, heartbeat=heartbeat)


def test_tie_failure_on_grid_instant():
    """Class 1: a worker failure and a root-leader kill on 5 s instants."""
    outcome = assert_twins_agree(
        [(1000.0, "hardware", (2,)), (2700.0, "hardware", (0,))]
    )
    assert outcome[2] == [0, 1]


def _chained(start, count, step=ODD_HEARTBEAT):
    beats = [start]
    for _ in range(count):
        beats.append(beats[-1] + step)
    return beats


def _drifted(beats, step=ODD_HEARTBEAT):
    """Indexes whose chained instant is not ``start + k * step``, on both
    sides of it."""
    start = beats[0]
    low = [k for k, b in enumerate(beats) if b < start + k * step]
    high = [k for k, b in enumerate(beats) if b > start + k * step]
    assert low and high
    return [low[0], low[-1], high[0], high[-1]]


def test_tie_failure_on_chained_instants():
    """Class 1 with a non-integer interval: build-time agents beat at
    ``0, h, h + h, ...``, which drifts from ``k * h``.  A failure armed
    on a chained instant precedes that beat; the root leader's too."""
    beats = _chained(0.0, 1500)
    for k in _drifted(beats[:1100]):
        assert_twins_agree(
            [(beats[k], "hardware", (2,)), (beats[k + 300], "hardware", (0,))],
            heartbeat=ODD_HEARTBEAT,
        )


def test_tie_failure_on_respawned_grid():
    """The same on a respawned incarnation's phase, which starts where
    the recovery resumed."""
    first = [(1000.0, "software", (2,))]
    resumed = run_system(SimulatedTrainingSystem, first, heartbeat=ODD_HEARTBEAT)[0][
        "recoveries"
    ][0]["resumed_at"]
    beats = _chained(resumed, 1000)
    for k in _drifted(beats):
        assert_twins_agree(
            first + [(beats[k], "hardware", (2,))], heartbeat=ODD_HEARTBEAT
        )


@pytest.mark.parametrize("warmup", [252.0, 2.0])
def test_tie_recovery_ends_on_scan_instant(warmup):
    """Class 4: serialization of exactly 8 s plus a warm-up that puts the
    resume instant on the leader's 5 s grid.  With a long warm-up the
    recovery's last event precedes that instant's scan, which then sees
    the respawned workers before their first beat; with a short one the
    scan goes first."""
    shard_bytes = 11247336960.0 * 2
    cost = RecoveryCostModel(
        restart_warmup=warmup,
        serialization=SerializationModel(bytes_per_second=shard_bytes / 8.0),
    )
    failures = [(1000.0, "software", (3,)), (1003.0, "software", (1,))]
    outcome = assert_twins_agree(failures, cost_model=cost)
    resumed = outcome[0]["recoveries"][0]["resumed_at"]
    assert resumed % HEARTBEAT == 0.0


@pytest.mark.parametrize(
    "failures",
    [
        # the leader, then the next candidate after its last scan: it is
        # elected with a live lease while dead, then its lease expires
        [(2700.0, "hardware", (0,)), (2702.5, "hardware", (1,))],
        # both at once: neither lease survives to the election
        [(2700.0, "hardware", (0, 1))],
        # the leader's lease expires, and a new leader is elected, at the
        # instant another worker dies: the election's first scan there
        # reports the leader's rank
        [(901.0, "hardware", (0,)), (915.0, "hardware", (2,))],
        # the leader dies while its replacement recovery is running
        [(1000.0, "software", (1,)), (1020.0, "hardware", (0,))],
        # every build-time candidate dies in turn, so a respawned
        # incarnation ends up leading
        [
            (1000.0, "hardware", (0,)),
            (2000.0, "hardware", (1,)),
            (3000.0, "hardware", (2,)),
            (4000.0, "hardware", (3,)),
            (5000.0, "software", (0,)),
        ],
    ],
)
def test_tie_reelection_order(failures):
    """Class 5: leader death and re-election in campaign order."""
    assert_twins_agree(failures, num_standby=2)


@pytest.mark.parametrize("second_at", [1010.0, 1100.0, 1290.0, 1500.0, 1317.25])
def test_tie_failure_during_recovery(second_at):
    """Class 6: a second failure before the recovery ends (it is handled
    by the same recovery's next pass) and after ``mark_handled``."""
    assert_twins_agree(
        [(1000.0, "hardware", (2,)), (second_at, "software", (3,))]
    )


# ------------------------------------------------------------- agent twin


class AgentWorld:
    """Workers on every rank and roots in a campaign order, bare."""

    def __init__(self, materialized: bool, order, armed=()):
        self.materialized = materialized
        self.sim = Simulator()
        self.store = KVStore(self.sim)
        self.cluster = Cluster(NUM_MACHINES, P4D_24XLARGE)
        self.election = Election(self.store, ROOT_ELECTION_KEY)
        self.detections: List[Tuple[float, List[int]]] = []
        self.roots = {}
        self.workers = {}
        # Hardware kills armed at build, as a scripted injector arms them.
        for at, rank in armed:
            self.sim.call_at(at, functools.partial(self._strike, rank))
        for rank in range(NUM_MACHINES):
            self._worker(rank)
        for rank in order:
            self._root(rank)

    def _strike(self, rank):
        machine = self.cluster.machine(rank)
        if machine.hardware_alive:
            machine.mark_failed()

    def _worker(self, rank):
        cls = MaterializedWorkerAgent if self.materialized else WorkerAgent
        self.workers[rank] = cls(
            self.sim, self.store, self.cluster, rank, HEARTBEAT, 15.0
        )

    def _root(self, rank):
        cls = MaterializedRootAgent if self.materialized else RootAgent
        self.roots[rank] = cls(
            self.sim, self.store, self.cluster, rank, self.election,
            lambda d: self.detections.append((d.detected_at, d.missing_ranks)),
            HEARTBEAT, 15.0,
        )

    def apply(self, op):
        kind, *args = op
        sim, cluster = self.sim, self.cluster
        if kind == "run":
            sim.run(until=sim.now + args[0])
        elif kind == "fail":
            rank, hardware = args
            machine = cluster.machine(rank)
            if hardware and machine.hardware_alive:
                machine.mark_failed()
            elif not hardware and machine.is_healthy:
                machine.mark_process_down()
        elif kind == "restart":
            machine = cluster.machine(args[0])
            if machine.state.value == "process_down":
                machine.restart_process()
        elif kind == "replace":
            if not cluster.machine(args[0]).hardware_alive:
                cluster.replace(args[0])
        elif kind == "respawn":
            # As FailureDetector does after a recovery pass: fresh agents for a
            # healthy rank whose worker lease is gone.
            rank = args[0]
            lease = self.workers[rank].lease
            if cluster.machine(rank).is_healthy and (lease is None or not lease.alive):
                self._worker(rank)
                self._root(rank)
        elif kind == "handled":
            for root in self.roots.values():
                root.mark_handled(args[0])

    def observe(self):
        return (
            self.sim.now,
            list(self.detections),
            self.election.leader(),
            sorted(self.store.get_prefix(HEALTH_PREFIX)),
        )


ranks = st.integers(0, NUM_MACHINES - 1)
agent_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("run"),
            st.one_of(
                st.integers(1, 12).map(lambda k: k * HEARTBEAT),
                st.floats(0.5, 40.0, allow_nan=False),
            ),
        ),
        st.tuples(st.just("fail"), ranks, st.booleans()),
        st.tuples(st.just("restart"), ranks),
        st.tuples(st.just("replace"), ranks),
        st.tuples(st.just("respawn"), ranks),
        st.tuples(
            st.just("handled"), st.lists(ranks, max_size=NUM_MACHINES, unique=True)
        ),
    ),
    max_size=30,
)


armed_kills = st.lists(
    st.tuples(
        st.one_of(
            st.integers(1, 60).map(lambda k: k * HEARTBEAT),
            st.floats(1.0, 300.0, allow_nan=False),
        ),
        ranks,
    ),
    max_size=4,
)


@settings(max_examples=TWIN_EXAMPLES * 4, deadline=None)
@given(order=st.permutations(range(NUM_MACHINES)), armed=armed_kills, ops=agent_ops)
def test_agent_twin_random_operations(order, armed, ops):
    analytic = AgentWorld(False, order, armed)
    materialized = AgentWorld(True, order, armed)
    for op in ops + [("run", 60.0)]:
        analytic.apply(op)
        materialized.apply(op)
        assert analytic.observe() == materialized.observe(), op


def test_agent_twin_bare_failure_between_runs():
    """Class 2: the beat at the kill instant already ran, so the lease
    lasts one interval longer than an in-run kill at the same instant."""
    outcomes = []
    for armed in (False, True):
        worlds = [
            AgentWorld(m, range(NUM_MACHINES), [(60.0, 3)] if armed else [])
            for m in (False, True)
        ]
        for world in worlds:
            world.apply(("run", 60.0))
            if not armed:
                world.apply(("fail", 3, True))
            world.apply(("run", 60.0))
        assert worlds[0].observe() == worlds[1].observe()
        outcomes.append(worlds[0].detections)
    assert outcomes == [[(75.0, [3])], [(70.0, [3])]]

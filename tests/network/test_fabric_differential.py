"""Differential test: optimized fabric vs the naive reference fluid model.

The incremental fabric (dirty-link recompute, interval busy accounting)
and the naive model in ``tests/network/reference.py`` share only the
model spec — per-link equal-split fair shares, bottleneck min across a
flow's links, sub-eps residues completing at completion events.  Running both over randomized
workloads and requiring matching completion times catches any bookkeeping
bug the incremental path could introduce.  The wide workloads hold more
than 64 flows active at once and then drain the fabric to none, so the
swap-remove bookkeeping of a long active-flow list is exercised at both
ends.
"""

import random

import pytest

from repro.network.fabric import Fabric
from repro.network.topology import Position, RackTopology
from repro.sim import Simulator
from tests.network.reference import (
    FlowSpec,
    PathFlowSpec,
    reference_completion_times,
    reference_completion_times_multilink,
)

NUM_WORKLOADS = 120
NUM_WIDE_WORKLOADS = 6
NUM_MULTIHOP_WORKLOADS = 60
#: the wide workloads must hold more than this many flows active at once.
WIDE_MIN_ACTIVE = 64


def random_workload(seed):
    """Random capacities + flow specs, including zero-byte and alpha flows."""
    rng = random.Random(seed)
    machines = [f"m{i}" for i in range(rng.randint(3, 8))]
    capacities = {name: rng.uniform(10.0, 200.0) for name in machines}
    specs = []
    for index in range(rng.randint(5, 40)):
        src, dst = rng.sample(machines, 2)
        if index % 11 == 0:
            nbytes = 0.0  # force zero-byte coverage in every workload
        else:
            nbytes = rng.uniform(0.0, 5000.0)
        specs.append(
            FlowSpec(
                start=rng.uniform(0.0, 50.0),
                src=src,
                dst=dst,
                nbytes=nbytes,
                alpha=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
            )
        )
    return capacities, specs


def wide_workload(seed):
    """100-200 flows starting 0.1 s apart on 8-16 machines.

    Flows outlast the stagger, so the active count climbs past
    ``WIDE_MIN_ACTIVE`` before draining back to zero.
    """
    rng = random.Random(seed)
    machines = [f"m{i}" for i in range(rng.randint(8, 16))]
    capacities = {name: rng.uniform(10.0, 200.0) for name in machines}
    specs = []
    for index in range(rng.randint(100, 200)):
        src, dst = rng.sample(machines, 2)
        specs.append(
            FlowSpec(
                start=index * 0.1,
                src=src,
                dst=dst,
                nbytes=0.0 if index % 23 == 0 else rng.uniform(1000.0, 5000.0),
                alpha=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
            )
        )
    return capacities, specs


def fabric_completion_times(capacities, specs):
    """Run the same workload through the real DES fabric.

    Returns the finish times, the most flows active at once (sampled at
    every launch) and the active-flow count after the run.
    """
    sim = Simulator()
    fabric = Fabric(sim)
    for name, capacity in capacities.items():
        fabric.attach(name, capacity)
    flows = [None] * len(specs)
    peak_active = 0

    def launch(index):
        nonlocal peak_active
        spec = specs[index]
        flow = fabric.transfer(
            spec.src, spec.dst, spec.nbytes, tag=f"diff{index}", alpha=spec.alpha
        )
        flow.done._defuse()
        flows[index] = flow
        peak_active = max(peak_active, len(fabric._act))

    for index, spec in enumerate(specs):
        sim.call_at(spec.start, lambda index=index: launch(index))
    sim.run()
    return [flow.finished_at for flow in flows], peak_active, len(fabric._act)


@pytest.mark.parametrize(
    "workload, seed",
    [pytest.param(random_workload, seed, id=str(seed)) for seed in range(NUM_WORKLOADS)]
    + [
        pytest.param(wide_workload, seed, id=f"wide{seed}")
        for seed in range(NUM_WIDE_WORKLOADS)
    ],
)
def test_fabric_matches_reference(workload, seed):
    capacities, specs = workload(seed)
    expected = reference_completion_times(capacities, specs)
    actual, peak_active, final_active = fabric_completion_times(capacities, specs)
    if workload is wide_workload:
        # Many flows were active at once, and the run drained them all.
        assert peak_active > WIDE_MIN_ACTIVE
        assert final_active == 0
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert want is not None, f"reference never finished flow {index}"
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (
            f"flow {index} ({specs[index]}): fabric={got} reference={want}"
        )


# ---------------------------------------------------------------------------
# Multi-hop: rack topologies with shared, oversubscribed uplinks
# ---------------------------------------------------------------------------

def random_multihop_workload(seed, oversubscription):
    """A rack cluster + random flows, many crossing shared rack uplinks.

    Returns (machine capacities, topology geometry, flow specs).  The
    test computes each flow's expected link path *independently* of the
    fabric's routing code, so a routing bug can't cancel out.
    """
    rng = random.Random(seed)
    num_racks = rng.randint(2, 4)
    rack_size = rng.randint(2, 4)
    machines = [f"m{i}" for i in range(num_racks * rack_size)]
    nic = rng.uniform(50.0, 200.0)
    capacities = {name: nic for name in machines}
    specs = []
    for index in range(rng.randint(8, 30)):
        src, dst = rng.sample(machines, 2)
        if index % 9 == 0:
            nbytes = 0.0
        else:
            nbytes = rng.uniform(0.0, 5000.0)
        specs.append(
            FlowSpec(
                start=rng.uniform(0.0, 40.0),
                src=src,
                dst=dst,
                nbytes=nbytes,
                alpha=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
            )
        )
    return capacities, (num_racks, rack_size, nic), specs


def _expected_path(src, dst, rack_size):
    """Independent path computation: same-rack stays on the NICs, cross-rack
    climbs the source rack's uplink and descends the destination's."""
    src_rack = int(src[1:]) // rack_size
    dst_rack = int(dst[1:]) // rack_size
    path = [f"{src}.out"]
    if src_rack != dst_rack:
        path += [f"rack{src_rack:03d}.up", f"rack{dst_rack:03d}.down"]
    path.append(f"{dst}.in")
    return tuple(path)


def multihop_fabric_completion_times(capacities, geometry, specs, oversubscription):
    """Run the workload through the DES fabric with a RackTopology."""
    num_racks, rack_size, nic = geometry
    sim = Simulator()
    topology = RackTopology.homogeneous(
        num_racks, rack_size, nic, oversubscription=oversubscription
    )
    fabric = Fabric(sim, topology=topology)
    for name, capacity in capacities.items():
        rack = int(name[1:]) // rack_size
        fabric.attach(name, capacity, position=Position(rack=rack))
    flows = [None] * len(specs)

    def launch(index):
        spec = specs[index]
        flow = fabric.transfer(
            spec.src, spec.dst, spec.nbytes, tag=f"diff{index}", alpha=spec.alpha
        )
        flow.done._defuse()
        flows[index] = flow

    for index, spec in enumerate(specs):
        sim.call_at(spec.start, lambda index=index: launch(index))
    sim.run()
    return [flow.finished_at for flow in flows]


@pytest.mark.parametrize("oversubscription", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("seed", range(NUM_MULTIHOP_WORKLOADS))
def test_multihop_fabric_matches_reference(seed, oversubscription):
    capacities, geometry, specs = random_multihop_workload(seed, oversubscription)
    num_racks, rack_size, nic = geometry
    uplink = rack_size * nic / oversubscription
    link_capacities = {}
    for name, capacity in capacities.items():
        link_capacities[f"{name}.out"] = capacity
        link_capacities[f"{name}.in"] = capacity
    for rack in range(num_racks):
        link_capacities[f"rack{rack:03d}.up"] = uplink
        link_capacities[f"rack{rack:03d}.down"] = uplink
    path_specs = [
        PathFlowSpec(
            start=spec.start,
            path=_expected_path(spec.src, spec.dst, rack_size),
            nbytes=spec.nbytes,
            alpha=spec.alpha,
        )
        for spec in specs
    ]
    expected = reference_completion_times_multilink(link_capacities, path_specs)
    actual = multihop_fabric_completion_times(
        capacities, geometry, specs, oversubscription
    )
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert want is not None, f"reference never finished flow {index}"
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (
            f"flow {index} ({specs[index]}): fabric={got} reference={want}"
        )


def test_multihop_oversubscribed_uplink_throttles():
    # 4 machines in 2 racks, 1:4 oversubscription: the shared uplink
    # (2 * 100 / 4 = 50 B/s) is the bottleneck for one cross-rack flow.
    times = reference_completion_times_multilink(
        {
            "m0.out": 100.0, "m2.in": 100.0,
            "rack000.up": 50.0, "rack001.down": 50.0,
        },
        [
            PathFlowSpec(
                start=0.0,
                path=("m0.out", "rack000.up", "rack001.down", "m2.in"),
                nbytes=500.0,
            )
        ],
    )
    assert times[0] == pytest.approx(10.0)


def test_multihop_same_rack_avoids_uplink():
    # Same-rack traffic never touches the uplink: full NIC rate even
    # when the uplink is saturated by a cross-rack flow.
    capacities = {
        "m0.out": 100.0, "m1.in": 100.0, "m2.in": 100.0,
        "rack000.up": 25.0, "rack001.down": 25.0,
    }
    times = reference_completion_times_multilink(
        capacities,
        [
            # cross-rack: throttled to 25 B/s by the uplink (shares m0.out)
            PathFlowSpec(
                start=0.0,
                path=("m0.out", "rack000.up", "rack001.down", "m2.in"),
                nbytes=250.0,
            ),
            # same-rack: m0.out is shared (50 each), uplink irrelevant
            PathFlowSpec(start=0.0, path=("m0.out", "m1.in"), nbytes=500.0),
        ],
    )
    # flow 1 gets min(100/2) = 50 B/s while flow 0 runs at min(50, 25) = 25.
    # flow 0 finishes at t=10; flow 1 has 500 - 50*10 = 0 left -> also t=10.
    assert times[0] == pytest.approx(10.0)
    assert times[1] == pytest.approx(10.0)


def test_reference_single_uncontended_flow():
    # Sanity-pin the oracle itself: f(s) = alpha + s / B on an empty fabric.
    times = reference_completion_times(
        {"a": 100.0, "b": 100.0},
        [FlowSpec(start=1.0, src="a", dst="b", nbytes=500.0, alpha=0.5)],
    )
    assert times[0] == pytest.approx(1.0 + 0.5 + 5.0)


def test_reference_fair_share_contention():
    # Two flows sharing a's egress: 50 B/s each until the first completes.
    times = reference_completion_times(
        {"a": 100.0, "b": 100.0, "c": 100.0},
        [
            FlowSpec(start=0.0, src="a", dst="b", nbytes=100.0),
            FlowSpec(start=0.0, src="a", dst="c", nbytes=100.0),
        ],
    )
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(2.0)

"""Unit checks of the benchmark's parts: layer map, counters, calibration,
failure accounting, self-time attribution and the comparison rule."""

import pathlib
import signal
import time

import pytest

import calibrate
import compare
import layers
import run
from workloads import Digest, Op, Plan, system_digest


def _matches(relative, path):
    return relative == path or (path.endswith("/") and relative.startswith(path))


def test_every_source_file_maps_to_exactly_one_layer():
    sources = sorted(
        path.relative_to(run.PACKAGE_DIR).as_posix()
        for path in run.PACKAGE_DIR.rglob("*.py")
    )
    assert sources
    for relative in sources:
        owners = [
            name
            for name, paths in layers.LAYERS
            if any(_matches(relative, path) for path in paths)
        ]
        assert len(owners) == 1, (relative, owners)
    for name, paths in layers.LAYERS:
        for path in paths:
            assert any(_matches(s, path) for s in sources), f"{name}: {path} matches nothing"


def test_counted_functions_resolve_or_fail_loudly():
    keys = layers.resolve_counts()
    assert set(layers.CALL_COUNTS) <= set(keys)
    assert all(keys.values())
    with pytest.raises(LookupError):
        layers.resolve("repro.sim.engine.Simulator.no_such_method")
    # Inherited, not defined here: a moved method must not silently redirect.
    with pytest.raises(LookupError):
        layers.resolve("repro.frontier.checkmate.CheckmatePolicy.commit_checkpoint")


def test_speed_factor_arithmetic():
    ref = calibrate.CALIB_REF_S
    assert calibrate.speed_factor([ref]) == pytest.approx(1.0)
    assert calibrate.speed_factor([2 * ref]) == pytest.approx(0.5)
    # Time-averaged speed: the mean of 1/loop, not 1/mean(loop).
    assert calibrate.speed_factor([ref, 2 * ref]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        calibrate.speed_factor([])
    with pytest.raises(ValueError):
        calibrate.speed_factor([ref, 0.0])


def test_speed_probe_samples_while_busy_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.15
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is previous


def test_repeat_times_are_net_of_probe_loops():
    class StubProbe:
        spent = 0.0

    probe = StubProbe()

    def build():
        probe.spent += 10.0

    def run_op(_built):
        probe.spent += 100.0
        return 1

    sample = run.Repeats(Plan([Op("stub", build, run_op, Digest)])).run(probe)
    assert -10.0 < sample["build_s"] < -9.9
    assert -100.0 < sample["run_s"] < -99.9


def _audited_op(violate):
    from repro.chaos.auditor import InvariantViolation
    from repro.experiments.scenario import Scenario

    def build():
        system, _injector = Scenario(
            name="tiny", policy="gemini", horizon_days=0.01, seeds=(0,)
        ).build_system(0)
        from repro.chaos.auditor import RecoveryInvariantAuditor

        return system, RecoveryInvariantAuditor(system)

    def run_op(built):
        system, auditor = built
        result = system.run(600.0)
        if violate:
            auditor.violations.append(InvariantViolation(1.0, "I1", "injected"))
        return result, auditor

    return Op("violated" if violate else "clean", build, run_op, lambda out: system_digest(*out))


def test_raising_ops_auditor_violations_and_changed_output_are_failures():
    def boom(_built):
        raise RuntimeError("injected")

    outputs = iter(range(100))
    plan = Plan(
        [
            _audited_op(violate=False),
            Op("raises", lambda: None, boom, Digest),
            _audited_op(violate=True),
            Op("drifts", lambda: None, lambda _b: next(outputs), Digest),
        ]
    )
    repeats = run.Repeats(plan)
    samples = run.timed(repeats.run, 0.0, 2)
    assert len(samples) == 2
    assert repeats.attempted == 8
    # raises x2, violated x2, drifts on the second repeat only.
    assert repeats.failed == 5
    text = "\n".join(repeats.problems)
    assert "raises: raised RuntimeError: injected" in text
    assert "violated: auditor I1" in text
    assert "drifts: output differs from the first repeat" in text
    assert "clean:" not in text


def test_foreign_time_goes_to_the_calling_layer():
    package = pathlib.Path("/nonexistent/src/repro")
    sim = (f"{package}/sim/engine.py", 1, "run")
    fabric = (f"{package}/network/fabric.py", 1, "transfer")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    stdlib_outer = ("/usr/lib/python3/copy.py", 1, "deepcopy")
    stdlib_inner = ("/usr/lib/python3/copy.py", 9, "_reconstruct")
    probe = (str(pathlib.Path(calibrate.__file__).resolve()), 1, "calibration_loop")
    probed = ("~", 0, "<built-in method builtins.len>")
    root = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")

    def edge(tt, ct):
        return (1, 1, tt, ct)

    stats = {
        sim: (1, 1, 1.0, 2.0, {}),
        fabric: (1, 1, 2.0, 5.0, {}),
        # heappush: 1.0 s on behalf of sim, 2.0 s on behalf of the fabric.
        builtin: (2, 2, 3.0, 3.0, {sim: edge(1.0, 1.0), fabric: edge(2.0, 2.0)}),
        stdlib_outer: (1, 1, 0.3, 0.8, {fabric: edge(0.3, 0.8)}),
        stdlib_inner: (1, 1, 0.5, 0.5, {stdlib_outer: edge(0.5, 0.5)}),
        probe: (1, 1, 0.7, 0.9, {sim: edge(0.7, 0.9)}),
        probed: (1, 1, 0.2, 0.2, {probe: edge(0.2, 0.2)}),
        root: (1, 1, 0.1, 0.1, {}),
    }
    seconds = layers.layer_self_seconds(stats, package, exclude=calibrate.__file__)
    assert seconds["sim"] == pytest.approx(2.0)
    assert seconds["network"] == pytest.approx(2.0 + 2.0 + 0.3 + 0.5)
    assert seconds["other"] == pytest.approx(0.1)
    assert sum(seconds.values()) == pytest.approx(6.9)  # the probe's 0.9 s is dropped


def test_compare_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(parent[:9], parent[:9], 0.1).startswith("unresolved")
    assert compare.verdict(parent, [v * 0.8 for v in parent], 0.1) == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], 0.1) == "regressed"
    assert compare.verdict(parent, [v * 1.02 for v in parent], 0.1) == "within bound"
    noisy = [1.0, 1.3, 0.8, 1.25, 0.75, 1.0, 1.3, 0.8, 1.2, 0.7]
    assert compare.verdict(noisy, noisy[::-1], 0.1).startswith("unresolved")
    assert compare.verdict([0.0] * 10, [0.0] * 9 + [0.1], 0.0, absolute=True) == "within bound"
    assert compare.verdict([0.0] * 10, [0.1] * 10, 0.0, absolute=True) == "regressed"

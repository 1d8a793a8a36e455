"""The benchmark's command-line interface, checked on quick runs in fresh processes.

``BENCHMARK.json`` declares exactly what ``run.py`` emits, every
workload reports every metric, traced counts repeat exactly across
processes, and without a source tree the benchmark fails cleanly.
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def quick_run(out, workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(run.BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--trace", str(trace),
            "--quick",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())[-1]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace, n) -> (last output line, full record)."""
    out = tmp_path_factory.mktemp("runs") / "records.json"
    return {
        (workload, trace, n): quick_run(out, workload, trace)
        for workload in WORKLOADS
        for trace, n in ((0, 0), (1, 0), (1, 1))
    }


def test_benchmark_json_declares_what_run_emits():
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [(name, unit, "lower", bound) for name, unit, bound in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER_METRICS
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_emits_every_metric(runs, workload):
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace in (0, 1):
        line, _record = runs[workload, trace, 0]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared[trace]
    for name in declared[0]:
        assert runs[workload, 0, 0][0]["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_across_processes(runs, workload):
    (_, first), (_, second) = runs[workload, 1, 0], runs[workload, 1, 1]
    assert first["counts"] == second["counts"]
    assert not first["count_mismatch"] and not second["count_mismatch"]
    assert first["fingerprint"] == second["fingerprint"] == runs[workload, 0, 0][1]["fingerprint"]
    for name, _unit in layers.PER_LAYER_METRICS:
        if not name.endswith(".self_s"):
            assert first["metrics"][name] == second["metrics"][name], name


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "des_report", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

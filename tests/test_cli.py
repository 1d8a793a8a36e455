"""Command-line interface."""

import pytest

from repro.cli import main


class TestPlacementCommand:
    def test_prints_groups_and_probabilities(self, capsys):
        assert main(["placement", "--machines", "10", "--replicas", "3"]) == 0
        out = capsys.readouterr().out
        assert "strategy: mixed" in out
        assert "group [0, 1, 2]" in out
        assert "P(recover from CPU memory)" in out

    def test_divisible_case_is_group(self, capsys):
        main(["placement", "--machines", "16", "--replicas", "2"])
        assert "strategy: group" in capsys.readouterr().out


class TestScheduleCommand:
    def test_renders_gantt(self, capsys):
        code = main([
            "schedule", "--model", "GPT-2 40B",
            "--instance", "p3dn.24xlarge", "--machines", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "compute" in out
        assert "ckpt" in out
        assert "fits: True" in out


class TestSimulateCommand:
    def test_runs_with_injected_failure(self, capsys):
        code = main([
            "simulate", "--duration", "1800", "--standby", "1",
            "--fail", "600:software:3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery: software ranks=[3] source=local_cpu" in out
        assert "effective ratio" in out

    def test_multi_rank_hardware_failure(self, capsys):
        code = main([
            "simulate", "--duration", "2400", "--standby", "2",
            "--fail", "600:hardware:1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hardware ranks=[1, 2]" in out

    def test_cluster_flag_survives_whole_rack_loss(self, capsys):
        # The headline topology behavior: a rack-topology cluster with
        # topology-aware placement recovers a whole-rack hardware loss
        # from remote CPU memory.
        code = main([
            "simulate", "--cluster", "a3mega-rack4x4",
            "--placement", "topology", "--duration", "2400",
            "--standby", "4", "--fail", "600:hardware:0,1,2,3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hardware ranks=[0, 1, 2, 3]" in out
        assert "source=remote_cpu" in out

    def test_unknown_cluster_fails_cleanly(self, capsys):
        code = main(["simulate", "--cluster", "no-such-cluster"])
        assert code == 1
        assert "unknown cluster spec" in capsys.readouterr().err

    def test_metrics_and_trace_outputs(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "simulate", "--duration", "3600", "--standby", "1",
            "--fail", "1200:hardware:3",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            "--events-out", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        prom = metrics.read_text()
        families = {
            line.split()[2]
            for line in prom.splitlines()
            if line.startswith("# TYPE")
        }
        assert len(families) >= 10
        assert any(name.endswith("_seconds") for name in families)
        assert "_bucket{" in prom

        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "recovery" in names
        assert "recovery.warmup" in names

        from repro.trace import TraceLog

        assert len(TraceLog.load(str(events))) > 0

    def test_trace_out_jsonl_suffix_selects_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main([
            "simulate", "--duration", "1800", "--standby", "1",
            "--fail", "600:software:2", "--trace-out", str(trace),
        ])
        import json

        first = json.loads(trace.read_text().splitlines()[0])
        assert first["type"] in ("span", "instant")


    def test_every_policy_runs_the_same_detector(self, tmp_path):
        from repro.trace import TraceKind, TraceLog

        detected = {}
        for policy in ("gemini", "strawman"):
            events = tmp_path / f"{policy}.jsonl"
            code = main([
                "simulate", "--policy", policy, "--duration", "1800",
                "--standby", "1", "--fail", "1003:hardware:3",
                "--events-out", str(events),
            ])
            assert code == 0
            log = TraceLog.load(str(events))
            detected[policy] = log.of_kind(TraceKind.DETECTION)[0].time
        # Lease expiry plus the next leader scan, for both policies.
        assert detected["gemini"] == detected["strawman"]
        assert 1003.0 < detected["gemini"] < 1003.0 + 20.0


class TestObserveCommand:
    def _write_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        main([
            "simulate", "--duration", "3600", "--standby", "1",
            "--fail", "1200:hardware:3", "--trace-out", str(trace),
        ])
        return trace

    def test_summarizes_trace(self, capsys, tmp_path):
        trace = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["observe", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "recovery phases" in out
        assert "warmup" in out
        assert "spans" in out

    def test_top_limits_rows(self, capsys, tmp_path):
        trace = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["observe", str(trace), "--top", "1"]) == 0
        assert "top 1 spans" in capsys.readouterr().out

    def test_empty_trace_returns_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["observe", str(empty)]) == 1

    def test_missing_or_garbage_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["observe", str(tmp_path / "nope.json")]) == 1
        garbage = tmp_path / "bad.json"
        garbage.write_text("garbage{{{\n")
        assert main(["observe", str(garbage)]) == 1
        err = capsys.readouterr().err
        assert "error: cannot read trace" in err

    def test_json_output_is_machine_readable(self, capsys, tmp_path):
        import json

        trace = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["observe", str(trace), "--json", "--top", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "wall_span", "wall_time", "spans", "recovery_phases", "instants",
        }
        assert len(doc["spans"]) <= 3
        assert "warmup" in doc["recovery_phases"]

    def test_json_empty_trace_keeps_stdout_clean(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["observe", str(empty), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no spans" in captured.err


class TestSweepTelemetryFlags:
    _GRID = [
        "--policies", "gemini", "--rates", "2.0", "--seeds", "0",
        "--horizon-days", "0.05",
    ]

    def test_telemetry_flags_do_not_change_output_bytes(self, capsys, tmp_path):
        bare = tmp_path / "bare.jsonl"
        observed = tmp_path / "observed.jsonl"
        fleet = tmp_path / "fleet.jsonl"
        assert main(["sweep", *self._GRID, "--out", str(bare)]) == 0
        assert main([
            "sweep", *self._GRID, "--out", str(observed),
            "--progress", "--telemetry-out", str(fleet),
        ]) == 0
        assert bare.read_bytes() == observed.read_bytes()
        captured = capsys.readouterr()
        # progress and telemetry notices ride stderr, stdout is identical
        assert "fleet" in captured.err
        assert fleet.exists()

    def test_telemetry_out_writes_events_and_chrome_trace(self, tmp_path):
        import json

        fleet = tmp_path / "fleet.jsonl"
        assert main([
            "sweep", *self._GRID, "--out", str(tmp_path / "rows.jsonl"),
            "--telemetry-out", str(fleet),
        ]) == 0
        events = [
            json.loads(line) for line in fleet.read_text().splitlines()
        ]
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert "scenario_finished" in kinds
        trace = json.loads((tmp_path / "fleet.trace.json").read_text())
        assert any(event["ph"] == "X" for event in trace["traceEvents"])

    def test_serve_metrics_announces_endpoint(self, capsys, tmp_path):
        assert main([
            "sweep", *self._GRID, "--out", str(tmp_path / "rows.jsonl"),
            "--serve-metrics", "0",
        ]) == 0
        assert "serving fleet metrics at http://127.0.0.1:" in (
            capsys.readouterr().err
        )


class TestFleetReportCommand:
    def _write_log(self, tmp_path):
        fleet = tmp_path / "fleet.jsonl"
        main([
            "sweep", "--policies", "gemini", "--rates", "2.0", "--seeds", "0",
            "--horizon-days", "0.05", "--out", str(tmp_path / "rows.jsonl"),
            "--telemetry-out", str(fleet),
        ])
        return fleet

    def test_renders_saved_log(self, capsys, tmp_path):
        fleet = self._write_log(tmp_path)
        capsys.readouterr()
        assert main(["fleet-report", str(fleet)]) == 0
        out = capsys.readouterr().out
        assert "fleet campaign:" in out
        assert "per-policy latency/violations" in out
        assert "gemini" in out

    def test_json_and_trace_out(self, capsys, tmp_path):
        import json

        fleet = self._write_log(tmp_path)
        trace = tmp_path / "replay.trace.json"
        capsys.readouterr()
        assert main([
            "fleet-report", str(fleet), "--json", "--trace-out", str(trace),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overview"]["finished"] == 1
        assert trace.exists()

    def test_missing_or_bad_log_fails_cleanly(self, capsys, tmp_path):
        assert main(["fleet-report", str(tmp_path / "nope.jsonl")]) == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["fleet-report", str(bad)]) == 1
        assert "error: cannot read telemetry log" in capsys.readouterr().err


class TestChaosTelemetryFlags:
    _GRID = [
        "--policies", "gemini", "--models", "correlated", "--seeds", "0",
        "--horizon-days", "0.1",
    ]

    def test_report_gains_fleet_tables_rows_stay_identical(
        self, capsys, tmp_path
    ):
        bare = tmp_path / "bare.jsonl"
        observed = tmp_path / "observed.jsonl"
        assert main(["chaos", *self._GRID, "--out", str(bare)]) == 0
        bare_out = capsys.readouterr().out
        assert "per-policy latency/violations" not in bare_out
        assert main([
            "chaos", *self._GRID, "--out", str(observed),
            "--telemetry-out", str(tmp_path / "fleet.jsonl"),
        ]) == 0
        observed_out = capsys.readouterr().out
        assert "per-policy latency/violations" in observed_out
        assert "worker utilization" in observed_out
        assert bare.read_bytes() == observed.read_bytes()


class TestChaosDryRun:
    def test_lists_a_valid_grid(self, capsys):
        assert main(["chaos", "--campaign", "ci", "--dry-run"]) == 0
        assert "gemini-rack-failure" in capsys.readouterr().out

    def test_unknown_policy_is_rejected_before_listing(self, capsys):
        assert main(["chaos", "--policies", "bogus", "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert "unknown policy 'bogus'" in captured.err
        assert "bogus-correlated" not in captured.out


class TestAdvisorCommand:
    def test_recommends_feasible_m(self, capsys):
        code = main(["advisor", "--machines", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended: m =" in out

    def test_p3dn_workload_recommends_2(self, capsys):
        code = main([
            "advisor", "--model", "GPT-2 40B",
            "--instance", "p3dn.24xlarge", "--machines", "16",
        ])
        assert code == 0
        assert "recommended: m = 2" in capsys.readouterr().out


class TestReportCommand:
    def test_prints_fast_tables(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for title in ("Table 1", "Table 2", "Figure 9", "Figure 15b"):
            assert title in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

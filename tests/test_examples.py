"""Smoke tests: every example script runs end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "recovery #1: software failure" in out
        assert "recovery #2: hardware failure" in out

    def test_placement_analysis(self):
        out = run_example("placement_analysis.py", "8", "2")
        assert "strategy=group" in out
        assert "OPTIMAL" in out
        assert "paper 0.933" in out

    def test_placement_analysis_mixed(self):
        out = run_example("placement_analysis.py", "7", "3")
        assert "strategy=mixed" in out
        assert "within the bound" in out

    def test_traffic_interleaving(self):
        out = run_example("traffic_interleaving.py")
        assert "OOM" in out
        assert "gemini" in out
        assert "+0.00%" in out

    def test_capacity_planning(self):
        out = run_example("capacity_planning.py", "GPT-2 40B", "p3dn.24xlarge", "16")
        assert "recommended m = 2" in out
        assert "per-iteration checkpointing fits" in out

    def test_recovery_deep_dive(self):
        out = run_example("recovery_deep_dive.py", "software")
        assert "recovery transcript" in out
        assert "rollback" in out
        assert "wasted-time accounting" in out

    @pytest.mark.slow
    def test_week_of_failures_default(self):
        """The documented default: seven days, no argument."""
        out = run_example("week_of_failures.py")
        assert "32 machines, 7 days" in out
        assert "A week of failures" in out

    @pytest.mark.slow
    def test_paper_report_fast(self):
        out = run_example("paper_report.py", "--fast", timeout=500)
        assert "Figure 16" in out
        assert "Figure 14" in out

"""Programmatic reproduction report."""

import hashlib
import json

import pytest

from repro.harness.figures import fig08_network_idle_time, fig16_interleaving_schemes
from repro.harness.report import (
    build_report,
    render_markdown,
    render_text,
    write_markdown_report,
)
from repro.sim import events_tally

#: sha256 of the DES report's canonical JSON; any change to a row moves it.
DES_REPORT_SHA256 = "d448f55cee8a2be108e8ff622fe469e605222dcf714f293e2fcce48501dc950d"

#: DES events one report fires when each distinct interleave run and
#: warm-up profile is simulated once.
DES_REPORT_MAX_EVENTS = 127_202


@pytest.fixture(scope="module")
def sections():
    return build_report(include_des=False)


@pytest.fixture(scope="module")
def des_reports():
    """Two back-to-back DES reports and the events each one fired."""
    built = []
    for _ in range(2):
        before = events_tally()
        report = build_report(include_des=True)
        built.append((report, events_tally() - before))
    return built


def _rows(report, section_id):
    (section,) = [s for s in report if s.section_id == section_id]
    return section.rows


class TestBuildReport:
    def test_fast_sections_present(self, sections):
        ids = [section.section_id for section in sections]
        assert ids == [
            "table1", "table2", "fig9", "fig10", "fig11", "fig12",
            "fig15a", "fig15b",
        ]

    def test_every_section_has_rows_and_notes(self, sections):
        for section in sections:
            assert section.rows, section.section_id
            assert section.paper_notes

    def test_des_sections_appended_on_request(self, des_reports):
        sections, _ = des_reports[0]
        ids = [section.section_id for section in sections]
        for section_id in ("fig7", "fig8", "fig13", "fig16"):
            assert section_id in ids

    def test_des_report_is_pinned(self, des_reports):
        sections, _ = des_reports[0]
        payload = [[s.section_id, s.title, s.rows] for s in sections]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DES_REPORT_SHA256

    def test_shared_runs_match_standalone_figures(self, des_reports):
        sections, _ = des_reports[0]
        assert fig08_network_idle_time(5, 10) == _rows(sections, "fig8")
        assert fig16_interleaving_schemes(
            num_iterations=3, warmup_iterations=6
        ) == _rows(sections, "fig16")

    def test_no_run_is_shared_across_reports(self, des_reports):
        (first, first_events), (second, second_events) = des_reports
        assert first_events == second_events
        assert 0 < first_events <= DES_REPORT_MAX_EVENTS
        assert [s.rows for s in first] == [s.rows for s in second]


class TestRendering:
    def test_markdown_structure(self, sections):
        text = render_markdown(sections, title="Test Report")
        assert text.startswith("# Test Report")
        assert "## Table 1: instance catalog" in text
        assert "| instance |" in text
        assert text.count("## ") == len(sections)

    def test_markdown_escapes_nothing_unexpected(self, sections):
        text = render_markdown(sections)
        # Every section renders a table header separator.
        assert text.count("| --- |") + text.count("| --- ") >= len(sections)

    def test_text_rendering(self, sections):
        text = render_text(sections)
        assert "Table 1: instance catalog" in text
        assert "Figure 15b" in text

    def test_write_markdown_report(self, tmp_path):
        path = tmp_path / "report.md"
        sections = write_markdown_report(str(path))
        content = path.read_text()
        assert content.startswith("# GEMINI reproduction report")
        assert len(sections) == 8


class TestCliIntegration:
    def test_cli_markdown_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "out.md"
        assert main(["report", "--markdown", str(path)]) == 0
        assert "wrote 8 sections" in capsys.readouterr().out
        assert path.exists()

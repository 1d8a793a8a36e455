"""Programmatic reproduction report.

Builds every table/figure into one structure and renders it as markdown —
the machine-generated counterpart of EXPERIMENTS.md, suitable for CI
artifacts (``python -m repro report --markdown report.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.core.interleave import SchemeRuns
from repro.harness import figures as fig
from repro.harness.format import render_table


@dataclass
class ReportSection:
    """One table/figure in the report."""

    section_id: str
    title: str
    rows: List[Dict[str, Any]]
    paper_notes: str = ""


#: The cheap (analytic/combinatorial) sections, always included.
FAST_SECTIONS: Sequence = (
    ("table1", "Table 1: instance catalog",
     fig.table1_instances,
     "CPU memory is 2-6x the aggregate GPU memory on every SKU."),
    ("table2", "Table 2: model configurations",
     fig.table2_models,
     "Computed parameter counts; the '10B' row computes to ~3.7B."),
    ("fig9", "Figure 9: recovery probability",
     fig.fig09_recovery_probability,
     "Paper: 93.3%/80.0% at N=16, m=2, k=2/3; Ring 25% lower at k=3."),
    ("fig10", "Figure 10: average wasted time (min)",
     fig.fig10_wasted_time,
     "Paper: GEMINI >13x faster recovery than HighFreq when recoverable."),
    ("fig11", "Figure 11: checkpoint-time reduction",
     fig.fig11_checkpoint_time_reduction,
     "Paper: >250x at 400 Gbps with 16 instances."),
    ("fig12", "Figure 12: checkpoint frequency",
     fig.fig12_checkpoint_frequency,
     "Paper: 8x over HighFreq, >170x over Strawman."),
    ("fig15a", "Figure 15a: effective ratio vs failures/day",
     fig.fig15a_failure_rates,
     "Paper: GEMINI stays near baseline at 8 failures/day."),
    ("fig15b", "Figure 15b: effective ratio vs cluster size",
     fig.fig15b_cluster_sizes,
     "Paper: ~91% at 1000 instances; Strawman can hardly proceed."),
)

def _fig14_rows():
    from repro.failures import FailureType

    return [
        fig.fig14_recovery_timeline(failure_type=FailureType.SOFTWARE),
        fig.fig14_recovery_timeline(failure_type=FailureType.HARDWARE),
        fig.fig14_recovery_timeline(
            failure_type=FailureType.HARDWARE, num_standby=2
        ),
    ]


#: DES-backed sections, included with include_des=True.  Each builder
#: takes the report's one :class:`SchemeRuns` table: Figure 8 reads
#: Figure 7's runs, and Figure 16's baseline and gemini are Figure 13's
#: GPT-2 40B runs.
DES_SECTIONS: Sequence = (
    ("fig7", "Figure 7: iteration time, 100B models",
     lambda runs: fig.fig07_iteration_time(5, 10, runs),
     "Paper: ~62 s/iteration, unchanged by GEMINI."),
    ("fig8", "Figure 8: network idle time",
     lambda runs: fig.fig08_network_idle_time(5, 10, runs),
     "Paper: ~12.5 s idle absorbs the <3 s checkpoint traffic."),
    ("fig13", "Figure 13: p3dn generalization",
     lambda runs: fig.fig13_p3dn_generalization(3, 6, runs),
     "Paper: same conclusions at 100 Gbps with 10-40B models."),
    ("fig14", "Figure 14: recovery timelines (software / hardware / +standby)",
     lambda runs: _fig14_rows(),
     "Paper: detect 15 s, serialize 162 s, replace 4-7 min, warm-up >4 min; "
     "~7 min software, ~12 min hardware."),
    ("fig16", "Figure 16: interleaving schemes",
     lambda runs: fig.fig16_interleaving_schemes(
         num_iterations=3, warmup_iterations=6, runs=runs
     ),
     "Paper: Blocking +10.1%, Naive OOM, GEMINI = baseline."),
    ("fig_frontier", "Frontier: GEMINI vs. Checkmate / TierCheck / Sparse-MoE / REFT",
     lambda runs: fig.fig_frontier(),
     "Extension: same kernel, fixed-delay detection; Checkmate's bound "
     "shows up as the lowest expected loss per failure."),
)


def build_report(include_des: bool = False) -> List[ReportSection]:
    """Run the experiments and collect the sections.

    The DES sections share one :class:`SchemeRuns` table made for this
    call, so each distinct interleave run is simulated once per report.
    """
    sections = [
        ReportSection(section_id, title, build(), notes)
        for section_id, title, build, notes in FAST_SECTIONS
    ]
    if include_des:
        runs = SchemeRuns()
        sections.extend(
            ReportSection(section_id, title, build(runs), notes)
            for section_id, title, build, notes in DES_SECTIONS
        )
    return sections


def _markdown_table(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return "_(no rows)_"
    # Union of keys across rows, in first-appearance order (rows of one
    # section may differ, e.g. software recoveries lack a replacement
    # phase).
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(col, "")) for col in columns) + " |")
    return "\n".join(lines)


def render_markdown(sections: List[ReportSection], title: str = "GEMINI reproduction report") -> str:
    """Render the report as a markdown document."""
    parts = [f"# {title}", ""]
    for section in sections:
        parts.append(f"## {section.title}")
        parts.append("")
        if section.paper_notes:
            parts.append(f"> {section.paper_notes}")
            parts.append("")
        parts.append(_markdown_table(section.rows))
        parts.append("")
    return "\n".join(parts)


def render_text(sections: List[ReportSection]) -> str:
    """Render the report as plain text tables."""
    parts = []
    for section in sections:
        parts.append(render_table(section.rows, title=section.title))
        parts.append("")
    return "\n".join(parts)


def write_markdown_report(
    path: str, include_des: bool = False, title: str = "GEMINI reproduction report"
) -> List[ReportSection]:
    """Build the report and write it to ``path``; returns the sections."""
    sections = build_report(include_des=include_des)
    with open(path, "w") as handle:
        handle.write(render_markdown(sections, title=title))
        handle.write("\n")
    return sections

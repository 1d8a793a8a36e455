#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation in one run.

Prints the reproduction report that EXPERIMENTS.md summarizes.  The DES
figures (7, 8, 13, 16) read one table of interleave runs, so Figure 8
reuses Figure 7's runs and Figure 16 reuses Figure 13's GPT-2 40B runs.
The whole report takes a few seconds; pass --fast to shrink the measured
iteration counts.

Usage:
    python examples/paper_report.py [--fast]
"""

import sys

from repro.core.interleave import SchemeRuns
from repro.failures import FailureType
from repro.harness import (
    fig07_iteration_time,
    fig08_network_idle_time,
    fig09_recovery_probability,
    fig10_wasted_time,
    fig11_checkpoint_time_reduction,
    fig12_checkpoint_frequency,
    fig13_p3dn_generalization,
    fig14_recovery_timeline,
    fig15a_failure_rates,
    fig15b_cluster_sizes,
    fig16_interleaving_schemes,
    render_table,
    table1_instances,
    table2_models,
)


def main():
    fast = "--fast" in sys.argv
    iters, warmup = (3, 5) if fast else (10, 20)
    runs = SchemeRuns()

    sections = [
        ("Table 1: instance catalog", lambda: table1_instances()),
        ("Table 2: model configurations", lambda: table2_models()),
        ("Figure 7: iteration time (s), 100B models, 16x p4d",
         lambda: fig07_iteration_time(iters, warmup, runs)),
        ("Figure 8: network idle time (s)",
         lambda: fig08_network_idle_time(iters, warmup, runs)),
        ("Figure 9: P(recover from CPU memory)",
         lambda: fig09_recovery_probability()),
        ("Figure 10: average wasted time (min)", fig10_wasted_time),
        ("Figure 11: checkpoint-time reduction (x)",
         fig11_checkpoint_time_reduction),
        ("Figure 12: checkpoint frequency", fig12_checkpoint_frequency),
        ("Figure 13: p3dn generalization",
         lambda: fig13_p3dn_generalization(
             max(2, iters // 2), max(5, warmup // 2), runs
         )),
        ("Figure 15a: effective ratio vs failures/day", fig15a_failure_rates),
        ("Figure 15b: effective ratio vs cluster size", fig15b_cluster_sizes),
        ("Figure 16: interleaving schemes (GPT-2 40B, 16x p3dn)",
         lambda: fig16_interleaving_schemes(
             num_iterations=max(2, iters // 2), runs=runs
         )),
    ]
    for title, build in sections:
        print("=" * 78)
        print(render_table(build(), title=title))
        print()

    print("=" * 78)
    print("Figure 14: recovery timelines")
    for failure_type in (FailureType.SOFTWARE, FailureType.HARDWARE):
        report = fig14_recovery_timeline(failure_type=failure_type)
        pretty = {
            key: round(value, 1) if isinstance(value, float) else value
            for key, value in report.items()
        }
        print(f"  {failure_type.value}: {pretty}")


if __name__ == "__main__":
    main()

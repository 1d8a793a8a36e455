"""Evaluation metrics: wasted time, checkpoint time/frequency, efficiency.

These modules compute the quantities plotted in the paper's evaluation:

- :mod:`repro.metrics.wasted` — average wasted time vs. number of replaced
  instances (Figure 10);
- :mod:`repro.metrics.checkpoint_time` — checkpoint-time reduction and
  checkpoint-frequency comparisons (Figures 11, 12);
- :mod:`repro.metrics.efficiency` — effective training-time ratio under
  failures (Figure 15).
"""

from repro.metrics.checkpoint_time import (
    checkpoint_frequency_per_hour,
    gemini_checkpoint_time,
    persistent_checkpoint_time,
    reduction_factor,
)
from repro.metrics.analysis import (
    RecoveryAccounting,
    RunSummary,
    account_recovery,
    commit_cadence,
    detection_latencies,
    summarize_run,
)
from repro.metrics.efficiency import effective_training_time_ratio
from repro.metrics.wasted import WastedTimeScenario, average_wasted_time

__all__ = [
    "RecoveryAccounting",
    "RunSummary",
    "WastedTimeScenario",
    "account_recovery",
    "commit_cadence",
    "detection_latencies",
    "summarize_run",
    "average_wasted_time",
    "checkpoint_frequency_per_hour",
    "effective_training_time_ratio",
    "gemini_checkpoint_time",
    "persistent_checkpoint_time",
    "reduction_factor",
]

"""Chaos engineering layer: hostile failure models + recovery auditing.

The paper's placement theory (Section 4) is motivated by *correlated*
machine losses, and its recovery procedure (Section 6) makes concrete
safety promises — recover to the latest completely replicated step, use
CPU memory iff a full replica set survived, never read a failed
machine.  This package generates the hostile regimes (correlated,
empirical, adversarial failures; non-fail-stop degradations) and checks
every recovery against those promises:

- :mod:`repro.chaos.models` — failure generators beyond Poisson;
- :mod:`repro.chaos.degrade` — bandwidth loss, stragglers, replica
  corruption (non-fail-stop);
- :mod:`repro.chaos.auditor` — the recovery invariant auditor;
- :mod:`repro.chaos.scenario` / :mod:`repro.chaos.campaign` —
  :class:`ChaosScenario` (a :class:`repro.experiments.Scenario` with the
  auditor attached) and the campaign runner built on
  :mod:`repro.experiments` (``python -m repro chaos``).
"""

from repro.chaos.auditor import (
    InvariantViolation,
    InvariantViolationError,
    RecoveryInvariantAuditor,
)
from repro.chaos.campaign import (
    CAMPAIGN_PRESETS,
    CampaignReport,
    chaos_grid,
    run_campaign,
)
from repro.chaos.degrade import (
    BandwidthDegradationInjector,
    ReplicaCorruptionInjector,
    StragglerInjector,
)
from repro.chaos.models import (
    AdversarialFailureInjector,
    CorrelatedFailureInjector,
    EmpiricalFailureInjector,
    FaultDomainTopology,
    OPT_INTERARRIVAL_WEIGHTS,
    OPT_SEVERITY_WEIGHTS,
)
from repro.chaos.scenario import ChaosScenario

__all__ = [
    "AdversarialFailureInjector",
    "BandwidthDegradationInjector",
    "CAMPAIGN_PRESETS",
    "CampaignReport",
    "ChaosScenario",
    "CorrelatedFailureInjector",
    "EmpiricalFailureInjector",
    "FaultDomainTopology",
    "InvariantViolation",
    "InvariantViolationError",
    "OPT_INTERARRIVAL_WEIGHTS",
    "OPT_SEVERITY_WEIGHTS",
    "RecoveryInvariantAuditor",
    "ReplicaCorruptionInjector",
    "StragglerInjector",
    "chaos_grid",
    "run_campaign",
]

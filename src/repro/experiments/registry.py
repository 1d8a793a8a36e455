"""Checkpoint-policy registry: name -> factory for the experiments layer.

Every harness that used to dispatch on hard-coded policy-name ``if``
chains (:mod:`repro.experiments.scenario`, :mod:`repro.metrics.efficiency`,
the figures and the CLI) now resolves policies here, so adding a fourth
policy is one :func:`register_policy` call — no edits across the metrics
stack.

A factory takes keyword "workload knobs" and returns an *unbound*
:class:`repro.core.kernel.CheckpointPolicy`.  Factories tolerate the
common knobs (``num_replicas``, ``persistent_bandwidth``, ``use_agents``,
``serialization``) even when a policy has no use for one — that is what
lets callers parameterize any policy uniformly.  Third-party policies can
also ship a ``repro.policies`` entry point; those load lazily on the
first miss.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.kernel import CheckpointPolicy
from repro.units import gbps

__all__ = [
    "ENTRY_POINT_GROUP",
    "available_policies",
    "create_policy",
    "get_policy",
    "policy_timings",
    "register_policy",
]

PolicyFactory = Callable[..., CheckpointPolicy]

#: setuptools entry-point group scanned for third-party policies.
ENTRY_POINT_GROUP = "repro.policies"

_REGISTRY: Dict[str, PolicyFactory] = {}
_entry_points_loaded = False


def register_policy(
    name: str,
    factory: Optional[PolicyFactory] = None,
    *,
    replace: bool = False,
):
    """Register ``factory`` under ``name``; usable as a decorator.

    Raises :class:`ValueError` on duplicate names unless ``replace=True``.
    """
    if factory is None:
        return lambda f: register_policy(name, f, replace=replace)
    if not callable(factory):
        raise TypeError(f"policy factory for {name!r} must be callable, got {factory!r}")
    if not replace and name in _REGISTRY:
        raise ValueError(
            f"policy {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = factory
    return factory


def _load_entry_points() -> None:
    global _entry_points_loaded
    if _entry_points_loaded:
        return
    _entry_points_loaded = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8
        return
    try:
        points = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - py<3.10 select API
        points = entry_points().get(ENTRY_POINT_GROUP, ())
    for point in points:  # pragma: no cover - needs an installed plug-in
        if point.name in _REGISTRY:
            continue  # explicit registrations shadow entry points
        try:
            _REGISTRY[point.name] = point.load()
        except Exception:
            # A broken plug-in must not take down the registry.
            continue


def get_policy(name: str) -> PolicyFactory:
    """Resolve a factory; raises :class:`ValueError` naming valid choices."""
    if name not in _REGISTRY:
        _load_entry_points()
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown policy {name!r}; valid choices: {valid}") from None


def create_policy(name: str, **kwargs) -> CheckpointPolicy:
    """Build a fresh unbound policy instance."""
    return get_policy(name)(**kwargs)


def available_policies() -> Tuple[str, ...]:
    """Sorted names of every registered policy (entry points included)."""
    _load_entry_points()
    return tuple(sorted(_REGISTRY))


def policy_timings(name: str, spec, plan, **kwargs):
    """Analytic :class:`~repro.baselines.policies.PolicyTimings` by name."""
    return create_policy(name, **kwargs).timings(spec, plan)


# --------------------------------------------------------------- built-ins


def _gemini_config(num_replicas, persistent_bandwidth, use_agents, config_kwargs):
    from repro.core.policy import GeminiConfig

    return GeminiConfig(
        num_replicas=num_replicas,
        persistent_bandwidth=persistent_bandwidth,
        use_agents=use_agents,
        **config_kwargs,
    )


@register_policy("gemini")
def build_gemini(
    num_replicas: int = 2,
    persistent_bandwidth: float = gbps(20),
    use_agents: bool = True,
    serialization=None,
    placement=None,
    **config_kwargs,
):
    """GEMINI: CPU-memory checkpoints + tiered recovery (the paper's system).

    ``serialization`` is accepted for registry uniformity but unused —
    GEMINI serializes only during recovery, which is priced by the
    kernel's cost model.  Extra keyword arguments flow into
    :class:`repro.core.policy.GeminiConfig`.
    """
    from repro.core.policy import GeminiPolicy

    config = _gemini_config(num_replicas, persistent_bandwidth, use_agents, config_kwargs)
    return GeminiPolicy(config, placement=placement)


def _build_persistent_only(cls, persistent_bandwidth, serialization, use_agents):
    policy = cls(persistent_bandwidth=persistent_bandwidth, serialization=serialization)
    policy.use_agents = bool(use_agents)
    return policy


@register_policy("strawman")
def build_strawman(
    persistent_bandwidth: float = gbps(20),
    serialization=None,
    num_replicas: Optional[int] = None,
    use_agents: Optional[bool] = None,
):
    """Strawman baseline: persistent checkpoint every 3 hours (BLOOM).

    ``num_replicas`` is accepted for registry uniformity and ignored (one
    remote copy).  ``use_agents`` picks the kernel's detector as for
    GEMINI, with the :mod:`repro.core.agents` default lease timings.
    """
    from repro.baselines.system import StrawmanPolicy

    return _build_persistent_only(StrawmanPolicy, persistent_bandwidth, serialization, use_agents)


@register_policy("highfreq")
def build_highfreq(
    persistent_bandwidth: float = gbps(20),
    serialization=None,
    num_replicas: Optional[int] = None,
    use_agents: Optional[bool] = None,
):
    """HighFreq baseline: persistent checkpoints as fast as the pipe allows.

    See :func:`build_strawman` for ``num_replicas`` and ``use_agents``.
    """
    from repro.baselines.system import HighFreqPolicy

    return _build_persistent_only(HighFreqPolicy, persistent_bandwidth, serialization, use_agents)


# ---------------------------------------------------------------- frontier

# The frontier policies subclass GeminiPolicy and default to fixed-delay
# detection.  The kernel runs one detector for every policy, so with or
# without agents a comparison is about the checkpointing mechanism.


@register_policy("checkmate")
def build_checkmate(
    num_replicas: int = 2,
    persistent_bandwidth: float = gbps(20),
    use_agents: bool = False,
    serialization=None,
    placement=None,
    gradient_phase_fraction: Optional[float] = None,
    **config_kwargs,
):
    """Checkmate: per-iteration replication on the gradient traffic
    (arXiv 2507.13522); rollback never exceeds the iteration in flight.
    """
    from repro.frontier.checkmate import CheckmatePolicy

    config = _gemini_config(num_replicas, persistent_bandwidth, use_agents, config_kwargs)
    policy = CheckmatePolicy(config, placement=placement)
    if gradient_phase_fraction is not None:
        policy.gradient_phase_fraction = gradient_phase_fraction
    return policy


@register_policy("tiercheck")
def build_tiercheck(
    num_replicas: int = 2,
    persistent_bandwidth: float = gbps(20),
    use_agents: bool = False,
    serialization=None,
    placement=None,
    ssd_interval: Optional[float] = None,
    ssd_bandwidth: Optional[float] = None,
    **config_kwargs,
):
    """TierCheck: tiered CPU -> SSD -> remote checkpointing
    (arXiv 2605.17821) with a pooled NVMe tier between CPU memory and
    persistent storage.
    """
    from repro.frontier.tiercheck import (
        DEFAULT_SSD_INTERVAL,
        TierCheckPolicy,
    )
    from repro.storage.ssd import DEFAULT_SSD_BANDWIDTH

    config = _gemini_config(num_replicas, persistent_bandwidth, use_agents, config_kwargs)
    return TierCheckPolicy(
        config,
        placement=placement,
        ssd_interval=ssd_interval if ssd_interval is not None else DEFAULT_SSD_INTERVAL,
        ssd_bandwidth=(
            ssd_bandwidth if ssd_bandwidth is not None else DEFAULT_SSD_BANDWIDTH
        ),
    )


@register_policy("sparse_moe")
def build_sparse_moe(
    num_replicas: int = 2,
    persistent_bandwidth: float = gbps(20),
    use_agents: bool = False,
    serialization=None,
    placement=None,
    num_experts: int = 16,
    expert_param_fraction: float = 0.75,
    expert_update_period: int = 4,
    **config_kwargs,
):
    """Sparse-MoE checkpointing (arXiv 2412.15411): only the experts an
    iteration updated re-replicate; GEMINI semantics, sparse traffic.
    """
    from repro.frontier.sparse_moe import SparseMoEPolicy

    config = _gemini_config(num_replicas, persistent_bandwidth, use_agents, config_kwargs)
    return SparseMoEPolicy(
        config,
        placement=placement,
        num_experts=num_experts,
        expert_param_fraction=expert_param_fraction,
        expert_update_period=expert_update_period,
    )


@register_policy("reft")
def build_reft(
    num_replicas: int = 2,
    persistent_bandwidth: float = gbps(20),
    use_agents: bool = False,
    serialization=None,
    placement=None,
    tensor_parallel: int = 2,
    pipeline_parallel: int = 2,
    **config_kwargs,
):
    """REFT-style hybrid-parallel replication (arXiv 2310.12670): replica
    placement follows the TP x PP x DP grid so every replica lands on a
    data-parallel peer.
    """
    from repro.frontier.reft import ReftPolicy

    config = _gemini_config(num_replicas, persistent_bandwidth, use_agents, config_kwargs)
    return ReftPolicy(
        config,
        placement=placement,
        tensor_parallel=tensor_parallel,
        pipeline_parallel=pipeline_parallel,
    )

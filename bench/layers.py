"""Per-layer attribution of a traced repeat: self time and work counts.

The traced repeat runs under ``cProfile``; nothing in ``src/`` changes.

*Self time.*  Every ``src/repro`` file belongs to exactly one layer
(:data:`LAYERS`).  A layer's self time is the summed ``tottime`` of its
functions.  Time spent in builtins, the standard library and numpy is
split among the callers that spent it, in proportion to the time each
caller spent there, up the call graph until a ``src/repro`` caller owns
it; time no ``src/repro`` frame owns goes to ``other``.

*Counts.*  Each count is the ``ncalls`` of public functions named by
dotted path (:data:`CALL_COUNTS`).  The paths are resolved to code
objects before the run, so a renamed function fails loudly instead of
reading 0.  A few counts come from outputs instead: simulated events
and hours (``events_tally`` and a wrapper around ``Simulator.run``),
recoveries by tier (a wrapper around ``record_recovery``) and audited
recovery plans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pathlib
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

#: layer -> the ``src/repro`` paths it owns ("dir/" prefixes or files).
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim", ("sim/",)),
    ("network", ("network/",)),
    ("kvstore", ("kvstore/",)),
    ("core.agents", ("core/agents.py",)),
    ("core.kernel", ("core/kernel.py",)),
    ("policy", ("core/policy.py", "core/system.py", "baselines/", "frontier/")),
    ("core.placement", ("core/placement.py", "core/probability.py", "core/replicas.py")),
    ("core.recovery", ("core/recovery.py", "core/wasted_time.py")),
    ("storage", ("storage/",)),
    ("cluster", ("cluster/", "cloud/")),
    (
        "interleave",
        (
            "core/interleave.py",
            "core/checkpoint.py",
            "core/partition.py",
            "core/profiler.py",
            "core/frequency.py",
        ),
    ),
    ("training", ("training/",)),
    ("chaos", ("chaos/", "failures/")),
    ("obs", ("obs/", "trace.py")),
    ("experiments", ("experiments/", "harness/", "metrics/")),
    (
        "other",
        (
            "__init__.py",
            "__main__.py",
            "cli.py",
            "units.py",
            "core/__init__.py",
            "analysis/",
            "perf/",
        ),
    ),
)

LAYER_NAMES = tuple(name for name, _paths in LAYERS)

#: the runtime hooks of ``CheckpointPolicy``; ``policy.hook_calls`` sums
#: their calls over every policy class that defines them.
POLICY_HOOKS = (
    "on_start",
    "on_iteration",
    "coalesce_iterations",
    "fast_forward",
    "on_gradient_phase",
    "on_persistent_tick",
    "on_failure",
    "after_failure",
    "plan_recovery",
    "recover",
    "finalize",
)
POLICY_CLASSES = (
    "repro.core.kernel.CheckpointPolicy",
    "repro.core.policy.GeminiPolicy",
    "repro.baselines.system.PersistentOnlyPolicy",
    "repro.baselines.system.StrawmanPolicy",
    "repro.baselines.system.HighFreqPolicy",
    "repro.frontier.checkmate.CheckmatePolicy",
    "repro.frontier.tiercheck.TierCheckPolicy",
    "repro.frontier.sparse_moe.SparseMoEPolicy",
    "repro.frontier.reft.ReftPolicy",
)

#: count metric -> public functions whose calls it sums.
CALL_COUNTS: Dict[str, Tuple[str, ...]] = {
    # sim.events and sim.events_per_sim_h come from events_tally and probes().
    "sim.timeouts": ("repro.sim.engine.Simulator.timeout",),
    "sim.callbacks": (
        "repro.sim.engine.Simulator.call_at",
        "repro.sim.engine.Simulator.call_after",
    ),
    "network.transfers": ("repro.network.fabric.Fabric.transfer",),
    "network.occupies": ("repro.network.fabric.Fabric.occupy",),
    "kvstore.puts": ("repro.kvstore.store.KVStore.put",),
    "kvstore.scans": ("repro.kvstore.store.KVStore.get_prefix",),
    "kvstore.refreshes": ("repro.kvstore.store.Lease.refresh",),
    "kvstore.watches": ("repro.kvstore.store.KVStore.watch",),
    "core.agents.spawned": (
        "repro.core.agents.WorkerAgent.__init__",
        "repro.core.agents.RootAgent.__init__",
    ),
    "core.kernel.settles": (
        "repro.core.kernel.SimulatedTrainingSystem.settle_iterations",
    ),
    "core.kernel.interrupts": (
        "repro.core.kernel.SimulatedTrainingSystem.macro_interrupt",
    ),
    "policy.commits": (
        "repro.core.policy.GeminiPolicy.commit_checkpoint",
        "repro.frontier.sparse_moe.SparseMoEPolicy.commit_checkpoint",
    ),
    "core.placement.lookups": (
        "repro.core.placement.Placement.storers_of",
        "repro.core.placement.Placement.hosted_by",
    ),
    "core.recovery.plans": ("repro.core.recovery.plan_recovery",),
    "storage.writes": ("repro.storage.cpu_memory.CPUCheckpointStore.commit_write",),
    "storage.reads": (
        "repro.storage.cpu_memory.CPUCheckpointStore.latest_complete",
        "repro.storage.persistent.PersistentStore.latest_complete",
        "repro.storage.ssd.SSDStore.latest_complete",
    ),
    "cluster.health_checks": ("repro.cluster.machine.Machine.is_healthy",),
    "cluster.replacements": ("repro.cloud.operator.CloudOperator.request_replacement",),
    "interleave.chunk_sends": ("repro.core.checkpoint.ChunkPipeline.send_chunks",),
    "training.loops": ("repro.training.loop.TrainingLoop.run",),
    "obs.trace_records": ("repro.trace.TraceLog.record",),
}

#: persistent uploads: published vs abandoned (torn upload window).
UPLOADS_PUBLISHED = "repro.core.kernel.SimulatedTrainingSystem.record_persistent_checkpoint"
UPLOADS_ABORTED = "repro.core.kernel.SimulatedTrainingSystem.record_persistent_aborted"

#: every per-layer metric, in report order: (name, unit).
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_sim_h", "1/h"),
    ("sim.timeouts", "count"),
    ("sim.callbacks", "count"),
    ("network.self_s", "s"),
    ("network.transfers", "count"),
    ("network.occupies", "count"),
    ("kvstore.self_s", "s"),
    ("kvstore.puts", "count"),
    ("kvstore.scans", "count"),
    ("kvstore.refreshes", "count"),
    ("kvstore.watches", "count"),
    ("core.agents.self_s", "s"),
    ("core.agents.spawned", "count"),
    ("core.kernel.self_s", "s"),
    ("core.kernel.settles", "count"),
    ("core.kernel.interrupts", "count"),
    ("policy.self_s", "s"),
    ("policy.commits", "count"),
    ("policy.hook_calls", "count"),
    ("core.placement.self_s", "s"),
    ("core.placement.lookups", "count"),
    ("core.recovery.self_s", "s"),
    ("core.recovery.plans", "count"),
    ("core.recovery.cpu_frac", "ratio"),
    ("storage.self_s", "s"),
    ("storage.writes", "count"),
    ("storage.reads", "count"),
    ("storage.aborted_frac", "ratio"),
    ("cluster.self_s", "s"),
    ("cluster.health_checks", "count"),
    ("cluster.replacements", "count"),
    ("interleave.self_s", "s"),
    ("interleave.chunk_sends", "count"),
    ("training.self_s", "s"),
    ("training.loops", "count"),
    ("chaos.self_s", "s"),
    ("chaos.audited_plans", "count"),
    ("obs.self_s", "s"),
    ("obs.trace_records", "count"),
    ("experiments.self_s", "s"),
    ("experiments.eq1_gap_pts", "pts"),
    ("other.self_s", "s"),
)

FuncKey = Tuple[str, int, str]


def layer_of(relative: str) -> Optional[str]:
    """The layer owning ``relative`` (a path under ``src/repro``), if any."""
    for name, paths in LAYERS:
        for path in paths:
            if relative == path or (path.endswith("/") and relative.startswith(path)):
                return name
    return None


# -- call counts ------------------------------------------------------------------


def resolve(dotted: str):
    """The function a dotted path names; raises if any part is missing.

    Class members are looked up in the class's own ``__dict__``, so a
    method that moved to a base class (or was renamed) is an error, not
    a silent redirect to the inherited definition.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            namespace = vars(target)
            if name not in namespace:
                raise LookupError(f"{dotted}: {name!r} not found in {target!r}")
            target = namespace[name]
        if isinstance(target, property):
            target = target.fget
        if isinstance(target, (staticmethod, classmethod)):
            target = target.__func__
        return inspect.unwrap(target)
    raise LookupError(f"{dotted}: no importable module prefix")


def code_key(function) -> FuncKey:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def resolve_counts() -> Dict[str, Tuple[FuncKey, ...]]:
    """Every call-count metric's code keys, resolved now."""
    keys = {
        name: tuple(code_key(resolve(path)) for path in paths)
        for name, paths in CALL_COUNTS.items()
    }
    hooks: List[FuncKey] = []
    for class_path in POLICY_CLASSES:
        cls = resolve(class_path)
        for hook in POLICY_HOOKS:
            if class_path == POLICY_CLASSES[0] and hook not in vars(cls):
                raise LookupError(f"CheckpointPolicy has no hook {hook!r}")
            if hook in vars(cls):
                hooks.append(code_key(resolve(f"{class_path}.{hook}")))
    keys["policy.hook_calls"] = tuple(hooks)
    keys["uploads.published"] = (code_key(resolve(UPLOADS_PUBLISHED)),)
    keys["uploads.aborted"] = (code_key(resolve(UPLOADS_ABORTED)),)
    return keys


def call_counts(stats, keys: Dict[str, Tuple[FuncKey, ...]]) -> Dict[str, int]:
    """Sum ``ncalls`` per metric from ``pstats.Stats(...).stats``."""
    return {
        name: sum(stats[key][1] for key in func_keys if key in stats)
        for name, func_keys in keys.items()
    }


# -- self time --------------------------------------------------------------------


def layer_self_seconds(stats, package_dir: pathlib.Path, exclude: str) -> Dict[str, float]:
    """Each layer's self seconds; foreign time goes to its callers' layers.

    Functions of the file ``exclude`` (the speed probe, which interrupts
    whatever code is running) and everything they call count for no layer.
    """
    prefix = str(package_dir.resolve()) + "/"
    excluded = str(pathlib.Path(exclude).resolve())
    owner: Dict[FuncKey, Optional[str]] = {}
    for key in stats:
        filename = key[0]
        if filename.startswith(prefix):
            owner[key] = layer_of(filename[len(prefix):]) or "other"
        elif filename == excluded:
            owner[key] = ""
        else:
            owner[key] = None

    shares: Dict[FuncKey, Dict[str, float]] = {}
    in_progress = set()

    def split(callers) -> Dict[str, float]:
        """Divide one unit of time among ``(caller, weight)`` pairs' layers."""
        total = sum(weight for _caller, weight in callers)
        parts: Dict[str, float] = defaultdict(float)
        for caller, weight in callers:
            weight = weight / total if total > 0 else 1.0 / len(callers)
            if owner.get(caller) == "":
                continue
            if owner.get(caller) is not None:
                parts[owner[caller]] += weight
            elif caller in stats and caller not in in_progress:
                for layer, part in share_of(caller).items():
                    parts[layer] += weight * part
            else:
                parts["other"] += weight
        return parts

    def share_of(key: FuncKey) -> Dict[str, float]:
        """How a foreign function's time divides among layers, by caller time."""
        if key not in shares:
            in_progress.add(key)
            callers = [(c, edge[3]) for c, edge in stats[key][4].items() if c != key]
            shares[key] = dict(split(callers)) if callers else {"other": 1.0}
            in_progress.discard(key)
        return shares[key]

    seconds = dict.fromkeys(LAYER_NAMES, 0.0)
    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if owner[key] == "":
            continue
        if owner[key] is not None:
            seconds[owner[key]] += tottime
        elif not callers:
            seconds["other"] += tottime
        else:
            # Each caller edge carries the exact tottime spent on its behalf.
            in_progress.add(key)
            for caller, edge in callers.items():
                for layer, part in split([(caller, 1.0)]).items():
                    seconds[layer] += edge[2] * part
            in_progress.discard(key)
    return seconds


# -- output probes ----------------------------------------------------------------


@contextlib.contextmanager
def probes() -> Iterator[Dict[str, float]]:
    """Tally simulated seconds and recoveries by tier while active.

    Wraps ``Simulator.run`` and ``SimulatedTrainingSystem.record_recovery``
    (both public, both read-only here) and restores them on exit.
    """
    from repro.core.kernel import SimulatedTrainingSystem
    from repro.sim.engine import Simulator

    tally = {"sim_seconds": 0.0, "recoveries": 0, "cpu_recoveries": 0}
    run = Simulator.run
    record_recovery = SimulatedTrainingSystem.record_recovery

    @functools.wraps(run)
    def timed_run(sim, *args, **kwargs):
        started = sim.now
        try:
            return run(sim, *args, **kwargs)
        finally:
            tally["sim_seconds"] += sim.now - started

    @functools.wraps(record_recovery)
    def counted_record_recovery(system, record):
        tally["recoveries"] += 1
        tally["cpu_recoveries"] += bool(record.from_cpu_memory)
        return record_recovery(system, record)

    Simulator.run = timed_run
    SimulatedTrainingSystem.record_recovery = counted_record_recovery
    try:
        yield tally
    finally:
        Simulator.run = run
        SimulatedTrainingSystem.record_recovery = record_recovery

"""Fleet telemetry: cross-worker campaign observability.

Sweeps and chaos campaigns fan hundreds of scenarios across
``multiprocessing`` workers; this module is the telemetry plane that
watches them.  Workers hold a :class:`TelemetryEmitter` and push small
structured events (scenario started/finished, cache hits, wall seconds,
sim events processed, invariant violations) onto a multiprocessing
queue; the parent's :class:`FleetAggregator` drains the queue and
maintains rolling throughput, cache-hit rate, per-policy wall-time
histograms (on :class:`repro.obs.MetricsRegistry`), per-worker lanes,
and an ETA.  On top of the aggregator:

- :class:`FleetProgress` — a TTY-aware live progress line (written to
  *stderr*, never stdout);
- JSONL event logs (:meth:`FleetAggregator.write_events_jsonl`) and a
  Chrome trace with one lane per worker
  (:meth:`FleetAggregator.write_chrome_trace`), so Perfetto shows the
  whole campaign's schedule, stragglers, and cache hits at a glance;
- Prometheus exposition of the fleet registry and a stdlib
  :class:`MetricsServer` for nightly campaigns;
- a post-hoc report (:func:`replay_events` + ``repro fleet-report``).

Determinism contract — the load-bearing part: everything here is
*observational wall-clock data about the execution*, strictly
quarantined from the deterministic simulation results.  Telemetry rides
a side channel (the queue), never the result path; emitters and the
aggregator fail open (drop events, never raise into the sweep); and the
sweep/campaign result bytes are pinned identical with telemetry on, off,
or crashed.  This module reads the host clock by design and is exempt
from DET001/DET005, exactly like :mod:`repro.perf`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, IO, Iterable, Iterator, List, Optional, Tuple

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FleetAggregator",
    "FleetProgress",
    "FleetSnapshot",
    "MetricsServer",
    "RunProbe",
    "TelemetryEmitter",
    "read_fleet_events",
    "render_fleet_summary",
    "replay_events",
    "scenario_fields",
]

FLEET_SCHEMA_VERSION = 1

#: wall-time histogram buckets for scenario execution (seconds): spans
#: sub-second cache-adjacent runs up to multi-minute stragglers.
SCENARIO_WALL_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 180.0, 600.0,
)


def scenario_fields(scenario: Any) -> Dict[str, Any]:
    """The identifying fields telemetry events carry for a scenario.

    Duck-typed so :class:`~repro.experiments.scenario.Scenario` (and its
    audited subclass :class:`~repro.chaos.scenario.ChaosScenario`) and
    ad-hoc objects (bench workloads) all work; missing attributes are
    simply omitted.
    """
    fields: Dict[str, Any] = {"scenario": getattr(scenario, "name", str(scenario))}
    hash_fn = getattr(scenario, "scenario_hash", None)
    if callable(hash_fn):
        fields["hash"] = hash_fn()
    for attr in ("policy", "model", "failure_model"):
        value = getattr(scenario, attr, None)
        if value is not None:
            fields[attr] = value
    return fields


class TelemetryEmitter:
    """Worker-side, fail-open event sender.

    ``channel`` is anything with ``put_nowait`` (a multiprocessing queue
    in workers, the aggregator's direct channel in-process, or ``None``
    for a no-op emitter).  ``emit`` NEVER raises: a full queue, a closed
    pipe, or a crashed aggregator just increments ``dropped`` — the
    count rides along on the next event that does get through, so the
    parent can report telemetry loss without ever risking the sweep.
    """

    def __init__(self, channel: Any = None, worker: Optional[str] = None):
        self._channel = channel
        self.worker = worker if worker is not None else f"pid-{os.getpid()}"
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self._channel is not None

    def emit(self, kind: str, **fields: Any) -> bool:
        """Send one event; returns False when disabled or dropped."""
        if self._channel is None:
            return False
        event: Dict[str, Any] = {"kind": kind, "t": time.time(), "worker": self.worker}
        event.update(fields)
        if self.dropped:
            event["dropped"] = self.dropped
        try:
            self._channel.put_nowait(event)
        except Exception:
            self.dropped += 1
            return False
        self.dropped = 0
        return True

    # -- scenario lifecycle helpers -------------------------------------------

    def scenario_started(self, scenario: Any) -> bool:
        return self.emit("scenario_started", **scenario_fields(scenario))

    def scenario_finished(
        self,
        scenario: Any,
        wall_seconds: float,
        sim_events: int = 0,
        violations: int = 0,
    ) -> bool:
        return self.emit(
            "scenario_finished",
            wall_seconds=round(float(wall_seconds), 6),
            sim_events=int(sim_events),
            violations=int(violations),
            **scenario_fields(scenario),
        )

    def cache_hit(self, scenario: Any) -> bool:
        return self.emit("cache_hit", **scenario_fields(scenario))

    @contextmanager
    def scenario_run(self, scenario: Any) -> Iterator["RunProbe"]:
        """Wrap one scenario execution in started/finished events.

        Measures wall seconds and the DES events processed in this
        process (via :func:`repro.sim.engine.events_tally` deltas), so
        callers never touch the host clock themselves.  Set
        ``probe.violations`` inside the body to ride the finish event.
        """
        from repro.sim.engine import events_tally

        self.scenario_started(scenario)
        mark = time.perf_counter()
        tally_before = events_tally()
        probe = RunProbe()
        try:
            yield probe
        finally:
            self.scenario_finished(
                scenario,
                wall_seconds=time.perf_counter() - mark,
                sim_events=events_tally() - tally_before,
                violations=probe.violations,
            )


class RunProbe:
    """Mutable carrier for per-run fields only the caller knows."""

    __slots__ = ("violations",)

    def __init__(self) -> None:
        self.violations = 0


#: the no-op emitter instrumented code can hold unconditionally.
NULL_EMITTER = TelemetryEmitter(None, worker="null")


class _DirectChannel:
    """An in-process 'queue' that records straight into the aggregator."""

    def __init__(self, aggregator: "FleetAggregator"):
        self._aggregator = aggregator

    def put_nowait(self, event: Dict[str, Any]) -> None:
        self._aggregator.record(event)


@dataclass
class WorkerLane:
    """One worker's timeline: its open scenario and completed spans."""

    worker: str
    index: int
    scenarios: int = 0
    busy_seconds: float = 0.0
    open: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class FleetSnapshot:
    """One moment of campaign state, for progress rendering."""

    total: int
    finished: int
    cache_hits: int
    running: int
    workers: int
    elapsed: float
    sim_events: int
    violations: int
    dropped: int

    @property
    def done(self) -> int:
        return self.finished + self.cache_hits

    @property
    def scenarios_per_sec(self) -> float:
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def sim_events_per_sec(self) -> float:
        return self.sim_events / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0

    @property
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall seconds at the current rate (None when unknown)."""
        if self.total <= 0 or self.done <= 0 or self.done >= self.total:
            return None
        rate = self.scenarios_per_sec
        return (self.total - self.done) / rate if rate > 0 else None


class FleetAggregator:
    """Parent-side sink for worker telemetry events.

    Every public method is fail-open: a malformed event is kept verbatim
    in the log but never raises into the sweep loop.  All timestamps in
    the retained event log are *relative to the campaign epoch* (the
    first ``start()``/``record()``), so logs from different runs are
    comparable and replayable.
    """

    def __init__(
        self,
        total: int = 0,
        *,
        queue_size: int = 8192,
        clock: Callable[[], float] = time.time,
    ):
        self._clock = clock
        self._queue_size = queue_size
        self._queue: Any = None
        self.total = int(total)
        self.epoch: Optional[float] = None
        self.events: List[Dict[str, Any]] = []
        self.finished = 0
        self.cache_hits = 0
        self.sim_events = 0
        self.violations = 0
        self.dropped = 0
        self.errors = 0
        self.closed_at: Optional[float] = None
        self.lanes: Dict[str, WorkerLane] = {}
        self._policy_stats: Dict[str, Dict[str, Any]] = {}
        self.registry = MetricsRegistry()
        self._scen_counter = {
            "completed": self.registry.counter(
                "fleet_scenarios_total", "scenarios finished by the campaign",
                labels={"status": "completed"},
            ),
            "cache_hit": self.registry.counter(
                "fleet_scenarios_total", "scenarios finished by the campaign",
                labels={"status": "cache_hit"},
            ),
        }
        self._sim_events_counter = self.registry.counter(
            "fleet_sim_events_total", "DES events processed across all workers"
        )
        self._dropped_counter = self.registry.counter(
            "fleet_telemetry_dropped_total", "telemetry events lost to backpressure"
        )
        self._running_gauge = self.registry.gauge(
            "fleet_scenarios_running", "scenarios currently executing"
        )
        self._total_gauge = self.registry.gauge(
            "fleet_campaign_scenarios", "scenarios in the campaign grid"
        )
        self._workers_gauge = self.registry.gauge(
            "fleet_workers", "distinct workers seen"
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self, total: Optional[int] = None) -> None:
        """Mark the campaign epoch; later events get relative timestamps."""
        if total is not None:
            self.total = int(total)
        if self.epoch is None:
            self.epoch = self._clock()
        self._total_gauge.set(self.total)
        self._append_event({"kind": "campaign_started", "t": 0.0, "total": self.total})

    def elapsed(self) -> float:
        if self.epoch is None:
            return 0.0
        if self.closed_at is not None:
            return self.closed_at
        return max(0.0, self._clock() - self.epoch)

    def make_queue(self) -> Any:
        """The multiprocessing queue worker emitters should write to."""
        if self._queue is None:
            import multiprocessing

            self._queue = multiprocessing.Queue(maxsize=self._queue_size)
        return self._queue

    def direct_emitter(self, worker: str = "worker-0") -> TelemetryEmitter:
        """An in-process emitter (single-worker sweeps, parent-side events)."""
        return TelemetryEmitter(_DirectChannel(self), worker=worker)

    # -- ingestion -------------------------------------------------------------

    def record(self, event: Dict[str, Any]) -> None:
        """Ingest one event.  Never raises; malformed events are kept raw."""
        try:
            self._record(event)
        except Exception:
            self.errors += 1

    def _normalize_time(self, event: Dict[str, Any]) -> float:
        if self.epoch is None:
            self.epoch = self._clock()
        raw = event.get("t")
        if isinstance(raw, (int, float)):
            rel = max(0.0, float(raw) - self.epoch)
        else:
            rel = self.elapsed()
        return round(rel, 6)

    def _append_event(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def _lane(self, worker: str) -> WorkerLane:
        lane = self.lanes.get(worker)
        if lane is None:
            lane = WorkerLane(worker=worker, index=len(self.lanes))
            self.lanes[worker] = lane
            self._workers_gauge.set(len(self.lanes))
        return lane

    def _policy(self, name: str) -> Dict[str, Any]:
        stats = self._policy_stats.get(name)
        if stats is None:
            stats = {"walls": [], "sim_events": 0, "violations": 0, "cache_hits": 0}
            self._policy_stats[name] = stats
        return stats

    def _close_open(self, lane: WorkerLane, end: float, aborted: bool) -> None:
        started = lane.open
        if started is None:
            return
        lane.open = None
        span = {
            "scenario": started.get("scenario", "?"),
            "hash": started.get("hash"),
            "policy": started.get("policy"),
            "start": started["t"],
            "end": max(end, started["t"]),
        }
        if aborted:
            span["aborted"] = True
        lane.spans.append(span)
        lane.busy_seconds += span["end"] - span["start"]
        self._running_gauge.set(self.running_count())

    def _record(self, event: Dict[str, Any]) -> None:
        ev = dict(event)
        ev["t"] = self._normalize_time(ev)
        self._append_event(ev)
        dropped = ev.get("dropped")
        if isinstance(dropped, int) and dropped > 0:
            self.dropped += dropped
            self._dropped_counter.inc(dropped)
        kind = ev.get("kind")
        worker = str(ev.get("worker", "worker-?"))
        if kind == "campaign_started":
            total = ev.get("total")
            if isinstance(total, int):
                self.total = total
                self._total_gauge.set(total)
        elif kind == "scenario_started":
            lane = self._lane(worker)
            # An already-open lane means the previous finish event was
            # lost (dropped, or the worker died and was replaced): close
            # it at this timestamp so the trace stays well-formed.
            self._close_open(lane, ev["t"], aborted=True)
            lane.open = ev
            self._running_gauge.set(self.running_count())
        elif kind == "scenario_finished":
            lane = self._lane(worker)
            wall = float(ev.get("wall_seconds", 0.0))
            started = lane.open
            if started is not None and started.get("hash") == ev.get("hash"):
                start_t = started["t"]
                lane.open = None
            elif started is not None:
                # finish for a different scenario: the matching start was
                # lost; close the stale one and synthesize this span.
                self._close_open(lane, ev["t"], aborted=True)
                start_t = max(0.0, ev["t"] - wall)
            else:
                start_t = max(0.0, ev["t"] - wall)
            span = {
                "scenario": ev.get("scenario", "?"),
                "hash": ev.get("hash"),
                "policy": ev.get("policy"),
                "start": start_t,
                "end": max(ev["t"], start_t),
                "sim_events": int(ev.get("sim_events", 0)),
                "violations": int(ev.get("violations", 0)),
            }
            lane.spans.append(span)
            lane.scenarios += 1
            lane.busy_seconds += span["end"] - span["start"]
            self.finished += 1
            self.sim_events += span["sim_events"]
            self.violations += span["violations"]
            self._scen_counter["completed"].inc()
            self._sim_events_counter.inc(span["sim_events"])
            self._running_gauge.set(self.running_count())
            policy = ev.get("policy")
            if policy is not None:
                stats = self._policy(str(policy))
                stats["walls"].append(wall)
                stats["sim_events"] += span["sim_events"]
                stats["violations"] += span["violations"]
                labels = {"policy": str(policy)}
                model = ev.get("failure_model") or ev.get("model")
                if model is not None:
                    labels["model"] = str(model)
                self.registry.histogram(
                    "fleet_scenario_wall_seconds",
                    "wall seconds per scenario",
                    labels=labels,
                    buckets=SCENARIO_WALL_BUCKETS,
                ).observe(wall)
                if span["violations"]:
                    self.registry.counter(
                        "fleet_invariant_violations_total",
                        "recovery invariant violations observed",
                        labels={"policy": str(policy)},
                    ).inc(span["violations"])
        elif kind == "cache_hit":
            self.cache_hits += 1
            self._scen_counter["cache_hit"].inc()
            policy = ev.get("policy")
            if policy is not None:
                self._policy(str(policy))["cache_hits"] += 1
        # unknown kinds are retained in the log (forward compatibility)
        # without touching any aggregate.

    def pump(self) -> int:
        """Drain everything currently waiting on the queue (non-blocking)."""
        if self._queue is None:
            return 0
        drained = 0
        while True:
            try:
                event = self._queue.get_nowait()
            except Exception:
                break
            self.record(event)
            drained += 1
        return drained

    def finalize(self, grace: float = 0.2) -> None:
        """Drain stragglers, close dead lanes, and freeze the clock.

        Events can arrive after the last *result* (queue pipes flush
        asynchronously), so draining keeps trying for ``grace`` seconds
        of silence before giving up.  A lane left open (worker died
        mid-scenario) is closed at the final timestamp and marked
        aborted, so the Chrome trace never contains an unclosed span and
        nothing ever hangs waiting for a finish event.
        """
        if self._queue is not None:
            deadline = time.monotonic() + max(0.0, grace)
            misses = 0
            while misses < 2 and time.monotonic() < deadline:
                try:
                    event = self._queue.get(timeout=0.05)
                except Exception:
                    misses += 1
                    continue
                misses = 0
                self.record(event)
        end = self.elapsed()
        for lane in self.lanes.values():
            self._close_open(lane, end, aborted=True)
        self.closed_at = end
        self._running_gauge.set(0)
        self._append_event(
            {
                "kind": "campaign_finished",
                "t": round(end, 6),
                "finished": self.finished,
                "cache_hits": self.cache_hits,
                "sim_events": self.sim_events,
                "violations": self.violations,
                "dropped": self.dropped,
            }
        )

    # -- queries ---------------------------------------------------------------

    def running_count(self) -> int:
        return sum(1 for lane in self.lanes.values() if lane.open is not None)

    def snapshot(self) -> FleetSnapshot:
        return FleetSnapshot(
            total=self.total,
            finished=self.finished,
            cache_hits=self.cache_hits,
            running=self.running_count(),
            workers=len(self.lanes),
            elapsed=self.elapsed(),
            sim_events=self.sim_events,
            violations=self.violations,
            dropped=self.dropped,
        )

    def policy_summary(self) -> List[Dict[str, Any]]:
        """Per-policy wall-time/violation aggregates, sorted by policy."""
        rows: List[Dict[str, Any]] = []
        for policy in sorted(self._policy_stats):
            stats = self._policy_stats[policy]
            walls = sorted(stats["walls"])
            row = {
                "policy": policy,
                "scenarios": len(walls),
                "cache_hits": stats["cache_hits"],
                "sim_events": stats["sim_events"],
                "violations": stats["violations"],
            }
            if walls:
                row["wall_mean_s"] = round(sum(walls) / len(walls), 6)
                row["wall_p50_s"] = round(walls[len(walls) // 2], 6)
                row["wall_max_s"] = round(walls[-1], 6)
            rows.append(row)
        return rows

    def worker_summary(self) -> List[Dict[str, Any]]:
        """Per-worker utilization lanes, in first-seen order."""
        elapsed = self.elapsed()
        rows = []
        for lane in sorted(self.lanes.values(), key=lambda entry: entry.index):
            rows.append(
                {
                    "worker": lane.worker,
                    "lane": lane.index,
                    "scenarios": lane.scenarios,
                    "busy_seconds": round(lane.busy_seconds, 6),
                    "utilization": round(lane.busy_seconds / elapsed, 4)
                    if elapsed > 0
                    else 0.0,
                }
            )
        return rows

    def summary(self) -> Dict[str, Any]:
        """The campaign's fleet aggregates as one JSON-stable dict."""
        snap = self.snapshot()
        return {
            "schema": FLEET_SCHEMA_VERSION,
            "overview": {
                "total": snap.total,
                "finished": snap.finished,
                "cache_hits": snap.cache_hits,
                "cache_hit_rate": round(snap.cache_hit_rate, 4),
                "elapsed_seconds": round(snap.elapsed, 6),
                "scenarios_per_sec": round(snap.scenarios_per_sec, 4),
                "sim_events": snap.sim_events,
                "sim_events_per_sec": round(snap.sim_events_per_sec, 2),
                "violations": snap.violations,
                "workers": snap.workers,
                "telemetry_dropped": snap.dropped,
                "telemetry_errors": self.errors,
            },
            "policies": self.policy_summary(),
            "workers": self.worker_summary(),
        }

    # -- exports ---------------------------------------------------------------

    def events_to_jsonl(self) -> str:
        return "".join(
            json.dumps(event, sort_keys=True, default=str) + "\n"
            for event in self.events
        )

    def write_events_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.events_to_jsonl())

    def to_tracer(self) -> Tracer:
        """The campaign as spans: one track per worker lane.

        Scenario executions become spans named after the scenario
        (cache hits become instants on a ``cache`` track), so Perfetto
        shows the whole campaign schedule — stragglers are long spans,
        idle workers are gaps, aborted lanes carry ``aborted: true``.
        """
        tracer = Tracer()
        for lane in sorted(self.lanes.values(), key=lambda entry: entry.index):
            track = f"worker-{lane.index}"
            for span in lane.spans:
                args = {
                    key: value
                    for key, value in span.items()
                    if key not in ("scenario", "start", "end") and value is not None
                }
                tracer.add_span(
                    span["scenario"], span["start"], span["end"], track=track, **args
                )
        for event in self.events:
            if event.get("kind") == "cache_hit":
                tracer.instant(
                    str(event.get("scenario", "cache_hit")),
                    time=event["t"],
                    track="cache",
                    hash=event.get("hash"),
                )
        return tracer

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(self.to_tracer()), handle)
            handle.write("\n")

    def to_prometheus(self) -> str:
        return to_prometheus(self.registry)


# ---------------------------------------------------------------------------
# post-hoc: replay a saved event log
# ---------------------------------------------------------------------------


def read_fleet_events(path: str) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL log written by ``write_events_jsonl``."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad telemetry JSONL at line {lineno}: {exc}") from None
            if not isinstance(event, dict):
                raise ValueError(f"telemetry line {lineno} is not a JSON object")
            events.append(event)
    return events


def replay_events(events: Iterable[Dict[str, Any]]) -> FleetAggregator:
    """Rebuild an aggregator from a saved (relative-timestamp) event log."""
    aggregator = FleetAggregator()
    aggregator.epoch = 0.0
    last_t = 0.0
    for event in events:
        raw_t = event.get("t")
        if isinstance(raw_t, (int, float)):
            last_t = max(last_t, float(raw_t))
        if event.get("kind") == "campaign_finished":
            # synthesized by finalize(); skip so replay-finalize doesn't
            # duplicate it, but keep its timestamp as the campaign end.
            continue
        aggregator.record(event)
    aggregator.closed_at = last_t
    for lane in aggregator.lanes.values():
        aggregator._close_open(lane, last_t, aborted=True)
    return aggregator


def render_fleet_summary(summary: Dict[str, Any]) -> str:
    """Human-readable fleet report (campaign overview + tables)."""
    from repro.harness.format import render_table

    overview = summary.get("overview", {})
    lines = [
        "fleet campaign: "
        f"{overview.get('finished', 0)} run + {overview.get('cache_hits', 0)} cached "
        f"of {overview.get('total', 0)} scenarios in "
        f"{overview.get('elapsed_seconds', 0.0):.2f}s "
        f"({overview.get('scenarios_per_sec', 0.0):.2f} scen/s, "
        f"{overview.get('sim_events_per_sec', 0.0):,.0f} sim-events/s)",
        f"violations: {overview.get('violations', 0)}  "
        f"telemetry dropped: {overview.get('telemetry_dropped', 0)}  "
        f"workers: {overview.get('workers', 0)}",
    ]
    policies = summary.get("policies") or []
    if policies:
        lines += [
            "",
            render_table(
                policies,
                columns=[
                    "policy", "scenarios", "cache_hits", "wall_mean_s",
                    "wall_p50_s", "wall_max_s", "sim_events", "violations",
                ],
                title="per-policy latency/violations",
                float_format="{:.3f}",
            ),
        ]
    workers = summary.get("workers") or []
    if workers:
        lines += [
            "",
            render_table(
                workers,
                columns=["worker", "lane", "scenarios", "busy_seconds", "utilization"],
                title="worker utilization",
                float_format="{:.3f}",
            ),
        ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# live progress rendering
# ---------------------------------------------------------------------------


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(round(seconds))
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class FleetProgress:
    """Terminal progress line for a running campaign.

    TTY-aware: on a terminal the line redraws in place (``\\r`` +
    erase); on a pipe it prints at most one plain line per
    ``log_interval`` seconds so CI logs stay readable.  Always writes to
    *stderr* (or the given stream) — stdout belongs to the deterministic
    result path.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.1,
        log_interval: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._min_interval = min_interval if self._tty else log_interval
        self._clock = clock
        self._last_render = float("-inf")
        self._dirty = False

    @staticmethod
    def format(snapshot: FleetSnapshot) -> str:
        total = snapshot.total
        done = snapshot.done
        pct = f"{done / total:4.0%}" if total else "  ??"
        parts = [
            f"fleet {done}/{total or '?'} ({pct.strip()})",
            f"{snapshot.cache_hits} cached",
            f"{snapshot.scenarios_per_sec:.2f} scen/s",
            f"{snapshot.sim_events_per_sec:,.0f} ev/s",
            f"{snapshot.running}/{snapshot.workers or 1} busy",
            f"eta {_fmt_eta(snapshot.eta_seconds)}",
        ]
        if snapshot.violations:
            parts.append(f"VIOLATIONS {snapshot.violations}")
        if snapshot.dropped:
            parts.append(f"dropped {snapshot.dropped}")
        return " | ".join(parts)

    def update(self, snapshot: FleetSnapshot, force: bool = False) -> None:
        try:
            now = self._clock()
            if not force and now - self._last_render < self._min_interval:
                self._dirty = True
                return
            self._last_render = now
            self._dirty = False
            line = self.format(snapshot)
            if self._tty:
                self.stream.write("\r\x1b[2K" + line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except Exception:
            pass  # progress must never take the campaign down

    def close(self, snapshot: Optional[FleetSnapshot] = None) -> None:
        try:
            if snapshot is not None:
                self.update(snapshot, force=True)
            if self._tty:
                self.stream.write("\n")
                self.stream.flush()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Prometheus endpoint
# ---------------------------------------------------------------------------


class MetricsServer:
    """A stdlib HTTP endpoint serving Prometheus text exposition.

    ``source`` is a :class:`MetricsRegistry` or a zero-argument callable
    returning exposition text; every ``GET /metrics`` (or ``/``) renders
    it fresh.  ``port=0`` binds an ephemeral port (the bound port is on
    ``.port``), which is what the tests use.
    """

    def __init__(
        self,
        source: Any,
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        # Imported here: only --serve-metrics needs it, and it costs every
        # importer of the obs package http, socketserver, email and ssl.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        if callable(source):
            render = source
        elif isinstance(source, FleetAggregator):
            render = source.to_prometheus
        else:
            registry = source
            render = lambda: to_prometheus(registry)  # noqa: E731

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404, "try /metrics")
                    return
                try:
                    body = render().encode("utf-8")
                except Exception as exc:
                    self.send_error(500, f"exposition failed: {exc}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # metrics scrapes should not spam the campaign output

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="fleet-metrics", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=2.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

"""Structured event tracing for simulated training jobs.

A :class:`TraceLog` records what happened and when — iterations committed,
checkpoints landed, failures struck, recovery phases ran — so experiments
can be analyzed after the fact (and Figure 14-style timelines rendered
from real runs rather than from summary counters).

The log is append-only and time-ordered, and runs expand on read: a
macro-tick replay records its stretch of commits as one *run* (kind,
detail key, first value, step, times), and :attr:`TraceLog.events`
expands each run into the events one ``record`` call per time would
have made.  Query helpers slice by kind and time window, and
:func:`render_trace` produces a human-readable transcript.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.units import fmt_seconds


class TraceKind(enum.Enum):
    ITERATION = "iteration"
    CHECKPOINT_COMMIT = "checkpoint_commit"
    PERSISTENT_CHECKPOINT = "persistent_checkpoint"
    #: a persistent upload window tore (failure/recovery landed between
    #: snapshot and publish) and the upload was abandoned un-published.
    PERSISTENT_ABORTED = "persistent_aborted"
    #: SSD-tier checkpoint landed / was abandoned (tiered policies).
    SSD_CHECKPOINT = "ssd_checkpoint"
    SSD_ABORTED = "ssd_aborted"
    FAILURE = "failure"
    DETECTION = "detection"
    REPLACEMENT = "replacement"
    SERIALIZATION = "serialization"
    RETRIEVAL = "retrieval"
    WARMUP = "warmup"
    RESUME = "resume"
    ROLLBACK = "rollback"
    #: non-fail-stop chaos events: bandwidth loss, stragglers, replica
    #: corruption (the machine stays up, so FAILURE would be wrong).
    DEGRADATION = "degradation"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    time: float
    kind: TraceKind
    detail: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        parts = ", ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"[{fmt_seconds(self.time):>10}] {self.kind.value:<21} {parts}"


class _Run:
    """Events of one kind whose detail is ``{key: first + k * step}`` at
    ``times[k]``: a replayed stretch of commits, kept unexpanded."""

    __slots__ = ("kind", "key", "first", "step", "times")

    def __init__(
        self, kind: TraceKind, key: str, first: int, step: int, times: List[float]
    ):
        self.kind = kind
        self.key = key
        self.first = first
        self.step = step
        self.times = times

    def expand(self) -> Iterable[TraceEvent]:
        kind, key, value, step = self.kind, self.key, self.first, self.step
        for time in self.times:
            yield TraceEvent(time=time, kind=kind, detail={key: value})
            value += step


class TraceLog:
    """Append-only, time-ordered event log.

    Events land in :attr:`events` as they are recorded, except that a
    run (:meth:`record_run`) and whatever follows it wait in a tail that
    the next read of :attr:`events` expands, in order.
    """

    def __init__(self):
        self._events: List[TraceEvent] = []
        self._tail: List[Union[TraceEvent, _Run]] = []
        self._last_time: Optional[float] = None

    def _check_time(self, time: float) -> None:
        if self._last_time is not None and time < self._last_time - 1e-9:
            raise ValueError(
                f"trace time went backwards: {time} after {self._last_time}"
            )

    def record(self, time: float, kind: TraceKind, **detail: Any) -> TraceEvent:
        """Append one event (time must be non-decreasing)."""
        self._check_time(time)
        event = TraceEvent(time=time, kind=kind, detail=detail)
        (self._tail if self._tail else self._events).append(event)
        self._last_time = time
        return event

    def record_run(
        self,
        kind: TraceKind,
        key: str,
        first: int,
        step: int,
        times: Sequence[float],
    ) -> None:
        """Append ``len(times)`` events at once: the ``k``-th is ``kind`` at
        ``times[k]`` with detail ``{key: first + k * step}``.

        The same events as one :meth:`record` call per time, expanded only
        when :attr:`events` is read.  ``times`` must be non-decreasing and
        start no earlier than the last recorded time.
        """
        if not times:
            return
        self._check_time(times[0])
        self._tail.append(_Run(kind, key, first, step, list(times)))
        self._last_time = times[-1]

    @property
    def events(self) -> List[TraceEvent]:
        """Every recorded event in order, runs expanded (and kept so)."""
        if self._tail:
            events = self._events
            for entry in self._tail:
                if isinstance(entry, _Run):
                    events.extend(entry.expand())
                else:
                    events.append(entry)
            self._tail = []
        return self._events

    # -- queries ---------------------------------------------------------------

    def of_kind(self, kind: TraceKind) -> List[TraceEvent]:
        return [event for event in self.events if event.kind is kind]

    def between(self, start: float, end: float) -> List[TraceEvent]:
        if end < start:
            raise ValueError(f"bad window [{start}, {end}]")
        return [event for event in self.events if start <= event.time <= end]

    def count(self, kind: TraceKind) -> int:
        return sum(1 for event in self.events if event.kind is kind)

    def last(self, kind: TraceKind) -> Optional[TraceEvent]:
        for event in reversed(self.events):
            if event.kind is kind:
                return event
        return None

    def phase_durations(self, start_kind: TraceKind, end_kind: TraceKind) -> List[float]:
        """Durations between start/end event pairs.

        Semantics: every ``start_kind`` event opens an interval, and the
        next ``end_kind`` event closes *all* open intervals — so two
        failures detected by one detection scan yield two latencies (one
        per failure), not just the most recent.  Starts with no later end
        (phase still running when the log stops) are dropped.  Durations
        are ordered by their start events.
        """
        durations: List[float] = []
        pending: List[float] = []
        for event in self.events:
            if event.kind is start_kind:
                pending.append(event.time)
            elif event.kind is end_kind and pending:
                durations.extend(event.time - start for start in pending)
                pending.clear()
        return durations

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization ---------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per event: ``{"time", "kind", "detail"}``.

        Detail values must be JSON-serializable (the recorders only store
        numbers, strings, bools, and lists thereof).
        """
        return "".join(
            json.dumps(
                {"time": event.time, "kind": event.kind.value, "detail": event.detail},
                sort_keys=True,
            )
            + "\n"
            for event in self.events
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceLog":
        """Rebuild a log from :meth:`to_jsonl` output (round-trip exact)."""
        log = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                log.record(float(row["time"]), TraceKind(row["kind"]), **row["detail"])
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"bad trace JSONL at line {lineno}: {exc}") from None
        return log

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "TraceLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())


def render_trace(
    log: TraceLog,
    kinds: Optional[Iterable[TraceKind]] = None,
    limit: Optional[int] = None,
) -> str:
    """A readable transcript, optionally filtered to some kinds."""
    wanted = set(kinds) if kinds else None
    selected = [
        event for event in log.events if wanted is None or event.kind in wanted
    ]
    if limit is not None:
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        # Guard the slice: [-0:] would keep everything instead of nothing.
        selected = selected[-limit:] if limit > 0 else []
    if not selected:
        return "(empty trace)"
    return "\n".join(event.describe() for event in selected)

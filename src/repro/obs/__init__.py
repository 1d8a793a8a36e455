"""Observability: metrics, span tracing, and exporters.

GEMINI's claims are about *where time goes* — idle network timespans,
checkpoint traffic packed into them, recovery phases (Figure 14) — so this
package gives every layer of the reproduction a way to say where its time
went:

- :class:`MetricsRegistry` — labeled counters, gauges, and fixed-bucket
  histograms, timestamped with the simulation clock;
- :class:`Tracer` — nested spans on the simulated clock,
  interoperating with the flat :class:`repro.trace.TraceLog`;
- exporters — Prometheus text exposition for metrics, Chrome trace-event
  JSON (Perfetto-loadable) and JSONL for spans.

The :class:`Observability` facade bundles one registry and one tracer and
has a disabled twin built from null objects, so instrumented code holds an
``obs`` handle unconditionally and pays nothing when observability is off
(hot paths additionally guard on ``obs.enabled``).  Simulation *behaviour*
never depends on observability: instruments only record, they never
schedule simulator events.

Usage::

    from repro.obs import Observability

    obs = Observability()                     # enabled
    system = GeminiSystem(..., obs=obs)       # binds the sim clock
    system.run(3600.0)
    print(to_prometheus(obs.metrics))
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    sanitize_label_name,
    sanitize_metric_name,
    spans_from_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.fleet import (
    FleetAggregator,
    FleetProgress,
    FleetSnapshot,
    MetricsServer,
    TelemetryEmitter,
    read_fleet_events,
    render_fleet_summary,
    replay_events,
)
from repro.obs.metrics import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.spans import NULL_TRACER, Instant, NullTracer, Span, Tracer
from repro.obs.summary import load_trace, render_summary, summarize, summary_to_dict


class Observability:
    """One registry + one tracer, sharing a (late-bound) clock.

    ``Observability()`` is enabled; ``Observability.disabled()`` (or the
    module-level :data:`NULL_OBSERVABILITY`) is the no-op twin.  Check
    ``obs.enabled`` before building label dictionaries on hot paths.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.metrics = registry if registry is not None else MetricsRegistry(clock)
        self.tracer = tracer if tracer is not None else Tracer(clock)
        if clock is not None:
            self.bind_clock(clock)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled

    @classmethod
    def disabled(cls) -> "Observability":
        """A no-op bundle (shared instruments; records nothing)."""
        obs = cls.__new__(cls)
        obs.metrics = NULL_REGISTRY
        obs.tracer = NULL_TRACER
        return obs

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point both the registry and the tracer at the simulation clock."""
        self.metrics.bind_clock(clock)
        self.tracer.bind_clock(clock)

    def span(self, name: str, track: str = "main", **args: Any):
        return self.tracer.span(name, track=track, **args)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Observability {state} metrics={len(self.metrics)} spans={len(self.tracer)}>"


#: The shared no-op bundle handed to components when no ``obs`` is given.
NULL_OBSERVABILITY = Observability.disabled()


__all__ = [
    "Counter",
    "DEFAULT_BYTES_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "FleetAggregator",
    "FleetProgress",
    "FleetSnapshot",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricError",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_OBSERVABILITY",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "TelemetryEmitter",
    "Tracer",
    "load_trace",
    "read_fleet_events",
    "render_fleet_summary",
    "render_summary",
    "replay_events",
    "sanitize_label_name",
    "sanitize_metric_name",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "summarize",
    "summary_to_dict",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]

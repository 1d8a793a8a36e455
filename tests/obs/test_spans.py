"""Tracer: nesting, explicit spans, instants, TraceLog interop, null path."""

import pytest

from repro.obs import NULL_TRACER, Observability, Tracer
from repro.trace import TraceKind, TraceLog


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTracer:
    def test_span_measures_clock_interval(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as record:
            clock.t = 5.0
        assert record.start == 0.0
        assert record.end == 5.0
        assert record.duration == 5.0

    def test_nested_spans_capture_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                clock.t = 1.0
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.children_of(outer) == [inner]

    def test_span_closes_on_exception(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                clock.t = 2.0
                raise RuntimeError("boom")
        assert tracer.spans[0].end == 2.0

    def test_add_span_validates_window(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.add_span("bad", start=5.0, end=1.0)

    def test_add_span_and_totals(self):
        tracer = Tracer()
        tracer.add_span("phase", 0.0, 3.0)
        tracer.add_span("phase", 10.0, 14.0)
        assert tracer.total_time("phase") == 7.0
        assert len(tracer) == 2

    def test_closed_spans_sorted_by_start(self):
        tracer = Tracer()
        tracer.add_span("late", 10.0, 11.0)
        tracer.add_span("early", 1.0, 2.0)
        assert [s.name for s in tracer.closed_spans()] == ["early", "late"]

    def test_instant_defaults_to_clock(self):
        clock = FakeClock()
        clock.t = 9.0
        tracer = Tracer(clock=clock)
        instant = tracer.instant("tick", value=1)
        assert instant.time == 9.0
        assert instant.args == {"value": 1}

    def test_ingest_trace_log(self):
        log = TraceLog()
        log.record(1.0, TraceKind.FAILURE, ranks=[3])
        log.record(16.0, TraceKind.DETECTION, ranks=[3])
        tracer = Tracer()
        assert tracer.ingest_trace_log(log) == 2
        assert [i.name for i in tracer.instants] == ["failure", "detection"]
        assert tracer.instants[0].args == {"ranks": [3]}


class TestNullTracer:
    def test_everything_is_a_noop(self):
        with NULL_TRACER.span("anything") as record:
            pass
        assert record.duration == 0.0
        assert NULL_TRACER.ingest_trace_log(TraceLog()) == 0
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled


class TestModuleLevelDefault:
    def test_observability_facade(self):
        obs = Observability()
        assert obs.enabled
        with obs.span("x"):
            pass
        assert obs.tracer.spans[0].name == "x"
        disabled = Observability.disabled()
        assert not disabled.enabled


"""Structured event tracing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import TraceEvent, TraceKind, TraceLog, render_trace


@pytest.fixture
def log():
    log = TraceLog()
    log.record(0.0, TraceKind.CHECKPOINT_COMMIT, iteration=1)
    log.record(62.0, TraceKind.CHECKPOINT_COMMIT, iteration=2)
    log.record(100.0, TraceKind.FAILURE, ranks=[3], failure_type="software")
    log.record(115.0, TraceKind.DETECTION, ranks=[3])
    log.record(277.0, TraceKind.SERIALIZATION)
    log.record(278.0, TraceKind.RETRIEVAL, source="local_cpu")
    log.record(530.0, TraceKind.RESUME, overhead=430.0)
    return log


class TestTraceLog:
    def test_record_and_count(self, log):
        assert len(log) == 7
        assert log.count(TraceKind.CHECKPOINT_COMMIT) == 2

    def test_time_must_not_go_backwards(self, log):
        with pytest.raises(ValueError):
            log.record(1.0, TraceKind.RESUME)

    def test_of_kind(self, log):
        failures = log.of_kind(TraceKind.FAILURE)
        assert len(failures) == 1
        assert failures[0].detail["ranks"] == [3]

    def test_between(self, log):
        window = log.between(100.0, 300.0)
        assert [event.kind for event in window] == [
            TraceKind.FAILURE,
            TraceKind.DETECTION,
            TraceKind.SERIALIZATION,
            TraceKind.RETRIEVAL,
        ]

    def test_between_validates_window(self, log):
        with pytest.raises(ValueError):
            log.between(10.0, 5.0)

    def test_last(self, log):
        assert log.last(TraceKind.CHECKPOINT_COMMIT).detail["iteration"] == 2
        assert log.last(TraceKind.REPLACEMENT) is None

    def test_phase_durations(self, log):
        durations = log.phase_durations(TraceKind.FAILURE, TraceKind.DETECTION)
        assert durations == [15.0]

    def test_phase_durations_double_start_emits_both_intervals(self):
        # Two starts before a single end: both intervals close at the end
        # event instead of the first start being silently dropped.
        log = TraceLog()
        log.record(10.0, TraceKind.FAILURE, ranks=[1])
        log.record(20.0, TraceKind.FAILURE, ranks=[2])
        log.record(35.0, TraceKind.DETECTION, ranks=[1, 2])
        durations = log.phase_durations(TraceKind.FAILURE, TraceKind.DETECTION)
        assert durations == [25.0, 15.0]

    def test_phase_durations_unmatched_trailing_start_dropped(self):
        log = TraceLog()
        log.record(10.0, TraceKind.FAILURE)
        log.record(15.0, TraceKind.DETECTION)
        log.record(50.0, TraceKind.FAILURE)  # never detected
        durations = log.phase_durations(TraceKind.FAILURE, TraceKind.DETECTION)
        assert durations == [5.0]

    def test_last_on_empty_log(self):
        assert TraceLog().last(TraceKind.FAILURE) is None

    def test_render_filters_and_limits(self, log):
        text = render_trace(log, kinds=[TraceKind.CHECKPOINT_COMMIT], limit=1)
        assert "iteration=2" in text
        assert "iteration=1" not in text
        assert render_trace(TraceLog()) == "(empty trace)"

    def test_render_limit_zero_is_empty(self, log):
        assert render_trace(log, limit=0) == "(empty trace)"

    def test_render_negative_limit_rejected(self, log):
        with pytest.raises(ValueError):
            render_trace(log, limit=-1)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, log):
        restored = TraceLog.from_jsonl(log.to_jsonl())
        assert len(restored) == len(log)
        for original, copy in zip(log.events, restored.events):
            assert copy.time == original.time
            assert copy.kind == original.kind
            assert copy.detail == original.detail

    def test_empty_log_round_trips(self):
        assert len(TraceLog.from_jsonl(TraceLog().to_jsonl())) == 0

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError):
            TraceLog.from_jsonl("not json\n")
        with pytest.raises(ValueError):
            TraceLog.from_jsonl('{"time": 0.0, "kind": "no_such_kind", "detail": {}}\n')

    def test_save_and_load(self, log, tmp_path):
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        restored = TraceLog.load(str(path))
        assert len(restored) == len(log)
        assert restored.last(TraceKind.RESUME).detail == {"overhead": 430.0}


# ------------------------------------------------------------------ runs
#
# A run stands for the events one ``record`` call per time would have
# made; every reader must see exactly those events.

gaps = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)

#: an op: one plain event, one commit run, or a read of ``events``.
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            gaps,
            st.sampled_from(
                [TraceKind.FAILURE, TraceKind.DETECTION, TraceKind.CHECKPOINT_COMMIT]
            ),
            st.integers(0, 9),
        ),
        st.tuples(
            st.just("run"),
            st.integers(1, 500),
            st.integers(1, 4),
            st.lists(gaps, max_size=8),
        ),
        st.just(("read",)),
    ),
    max_size=12,
)


def build_logs(script):
    """The script recorded with runs (``lazy``) and one event at a time
    (``eager``); ``read`` ops read the lazy log's events mid-way."""
    lazy, eager = TraceLog(), TraceLog()
    time = 0.0
    for op in script:
        if op[0] == "record":
            _, gap, kind, value = op
            time += gap
            key = "iteration" if kind is TraceKind.CHECKPOINT_COMMIT else "ranks"
            detail = {key: value}
            lazy.record(time, kind, **detail)
            eager.record(time, kind, **detail)
        elif op[0] == "run":
            _, first, step, run_gaps = op
            times = []
            for gap in run_gaps:
                time += gap
                times.append(time)
            lazy.record_run(TraceKind.CHECKPOINT_COMMIT, "iteration", first, step, times)
            for k, at in enumerate(times):
                eager.record(at, TraceKind.CHECKPOINT_COMMIT, iteration=first + k * step)
        else:
            assert len(lazy.events) == len(eager.events)
    return lazy, eager, time


READERS = {
    "len": len,
    "events": lambda log: log.events,
    "of_kind": lambda log: [log.of_kind(kind) for kind in TraceKind],
    "count": lambda log: [log.count(kind) for kind in TraceKind],
    "last": lambda log: [log.last(kind) for kind in TraceKind],
    "phase_durations": lambda log: (
        log.phase_durations(TraceKind.FAILURE, TraceKind.DETECTION),
        log.phase_durations(TraceKind.CHECKPOINT_COMMIT, TraceKind.FAILURE),
    ),
    "to_jsonl": lambda log: log.to_jsonl(),
    "render": lambda log: [render_trace(log, limit=limit) for limit in (None, 0, 1, 5)],
    "render_kinds": lambda log: render_trace(log, kinds=[TraceKind.CHECKPOINT_COMMIT]),
    "round_trip": lambda log: TraceLog.from_jsonl(log.to_jsonl()).to_jsonl(),
}


class TestRuns:
    @settings(max_examples=60, deadline=None)
    @given(script=ops)
    def test_runs_read_as_recorded_events(self, script):
        _, eager, end = build_logs(script)
        for name, read in READERS.items():
            lazy, _, _ = build_logs(script)  # each reader expands afresh
            assert read(lazy) == read(eager), name
        for start, stop in ((0.0, end), (end / 3, end / 2), (end, end)):
            lazy, _, _ = build_logs(script)
            assert lazy.between(start, stop) == eager.between(start, stop)

    def run_log(self):
        log = TraceLog()
        log.record(1.0, TraceKind.FAILURE, ranks=[2])
        log.record_run(TraceKind.CHECKPOINT_COMMIT, "iteration", 3, 3, [2.0, 4.0, 6.0])
        return log

    def test_run_expands_in_order(self):
        assert self.run_log().events == [
            TraceEvent(1.0, TraceKind.FAILURE, {"ranks": [2]}),
            TraceEvent(2.0, TraceKind.CHECKPOINT_COMMIT, {"iteration": 3}),
            TraceEvent(4.0, TraceKind.CHECKPOINT_COMMIT, {"iteration": 6}),
            TraceEvent(6.0, TraceKind.CHECKPOINT_COMMIT, {"iteration": 9}),
        ]

    def test_record_before_a_runs_last_time_rejected(self):
        log = self.run_log()
        with pytest.raises(ValueError):
            log.record(5.0, TraceKind.RESUME)
        assert len(log) == 4

    def test_run_starting_before_the_last_record_rejected(self):
        log = self.run_log()
        log.record(7.0, TraceKind.RESUME)
        with pytest.raises(ValueError):
            log.record_run(TraceKind.CHECKPOINT_COMMIT, "iteration", 10, 1, [6.5, 8.0])
        assert len(log) == 5

    def test_record_after_reading_events_still_appends(self):
        log = self.run_log()
        assert len(log.events) == 4
        event = log.record(7.0, TraceKind.RESUME)
        assert log.events[-1] is event
        log.record_run(TraceKind.CHECKPOINT_COMMIT, "iteration", 12, 3, [8.0])
        assert len(log) == 6
        assert log.last(TraceKind.CHECKPOINT_COMMIT).detail == {"iteration": 12}

    def test_empty_run_records_nothing(self):
        log = TraceLog()
        log.record(3.0, TraceKind.FAILURE)
        log.record_run(TraceKind.CHECKPOINT_COMMIT, "iteration", 1, 1, [])
        log.record(3.0, TraceKind.DETECTION)
        assert [event.kind for event in log.events] == [
            TraceKind.FAILURE,
            TraceKind.DETECTION,
        ]

    def test_events_has_no_setter(self):
        with pytest.raises(AttributeError):
            TraceLog().events = []


class TestSystemTracing:
    def test_gemini_system_records_recovery_phases(self):
        from repro.cluster import P4D_24XLARGE
        from repro.core.system import GeminiSystem
        from repro.failures import FailureEvent, FailureType, TraceFailureInjector
        from repro.training import GPT2_100B

        system = GeminiSystem(GPT2_100B, P4D_24XLARGE, 16)
        TraceFailureInjector(
            system.sim, system.cluster,
            [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
            system.inject_failure,
        )
        system.run(3600.0)
        trace = system.trace
        for kind in (
            TraceKind.FAILURE,
            TraceKind.DETECTION,
            TraceKind.REPLACEMENT,
            TraceKind.SERIALIZATION,
            TraceKind.RETRIEVAL,
            TraceKind.ROLLBACK,
            TraceKind.RESUME,
        ):
            assert trace.count(kind) == 1, kind
        assert trace.count(TraceKind.CHECKPOINT_COMMIT) > 20
        # Detection latency measured from the trace itself.
        latency = trace.phase_durations(TraceKind.FAILURE, TraceKind.DETECTION)
        assert latency and 10 <= latency[0] <= 25

    def test_persistent_checkpoint_traced(self):
        from repro.cluster import P4D_24XLARGE
        from repro.core.system import GeminiConfig, GeminiSystem
        from repro.training import GPT2_100B

        system = GeminiSystem(
            GPT2_100B, P4D_24XLARGE, 16,
            config=GeminiConfig(persistent_interval=600.0),
        )
        system.run(3600.0)
        assert system.trace.count(TraceKind.PERSISTENT_CHECKPOINT) >= 3

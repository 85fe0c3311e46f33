"""Tracer: span nesting, ordering, external intervals, JSONL."""

import json

import pytest

from repro.errors import ExecutionError
from repro.telemetry import Tracer
from repro.telemetry.report import _render_span_tree


class TestNesting:
    def test_spans_nest_and_order_by_creation(self):
        tracer = Tracer()
        with tracer.span("outer", label="a"):
            with tracer.span("inner.first"):
                pass
            with tracer.span("inner.second"):
                with tracer.span("leaf"):
                    pass
        names = [s.name for s in tracer.spans]
        assert names == ["outer", "inner.first", "inner.second", "leaf"]
        outer, first, second, leaf = tracer.spans
        assert outer.parent_id is None and outer.depth == 0
        assert first.parent_id == outer.span_id and first.depth == 1
        assert second.parent_id == outer.span_id and second.depth == 1
        assert leaf.parent_id == second.span_id and leaf.depth == 2

    def test_siblings_after_pop_reparent_correctly(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans
        assert a.parent_id is None and b.parent_id is None

    def test_durations_filled_on_close(self):
        tracer = Tracer()
        with tracer.span("timed"):
            sum(range(1000))
        span = tracer.spans[0]
        assert span.duration_s is not None and span.duration_s >= 0
        assert span.cpu_s is not None and span.cpu_s >= 0
        assert span.status == "ok"

    def test_exception_marks_span_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ExecutionError):
            with tracer.span("fails"):
                raise ExecutionError("boom")
        span = tracer.spans[0]
        assert span.status == "error"
        assert span.duration_s is not None  # closed despite the raise


class TestRecordSpan:
    def test_parented_to_innermost_open_span(self):
        from repro.telemetry.clock import perf

        tracer = Tracer()
        with tracer.span("parent"):
            start = perf()
            end = perf()
            recorded = tracer.record_span("chunk", start, end, index=3)
        assert recorded.parent_id == tracer.spans[0].span_id
        assert recorded.depth == 1
        assert recorded.attrs == {"index": 3}
        assert recorded.duration_s == pytest.approx(end - start)
        assert recorded.cpu_s is None  # CPU burned in another process

    def test_root_when_no_span_open(self):
        from repro.telemetry.clock import perf

        tracer = Tracer()
        t = perf()
        recorded = tracer.record_span("chunk", t, t)
        assert recorded.parent_id is None and recorded.depth == 0


class TestSerialisation:
    def test_jsonl_round_trips(self):
        tracer = Tracer()
        with tracer.span("outer", sigma=0.1):
            with tracer.span("inner"):
                pass
        payload = tracer.to_jsonl()
        assert payload.endswith(b"\n")
        docs = [json.loads(line) for line in payload.splitlines()]
        assert docs == tracer.to_records()
        assert docs[0]["name"] == "outer"
        assert docs[0]["attrs"] == {"sigma": 0.1}
        assert docs[1]["parent_id"] == docs[0]["span_id"]

    def test_empty_tracer_serialises_empty(self):
        assert Tracer().to_jsonl() == b""
        assert _render_span_tree(Tracer().to_records()) == \
            "(no spans recorded)"

    def test_render_tree_indents_by_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
        lines = _render_span_tree(tracer.to_records()).splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "k=1" in lines[1]

"""Tests for the hierarchical tracer and its JSONL round-trip."""

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer, span, use_tracer
from repro.obs.trace import active_tracer as current_tracer


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    assert obs_trace.active_tracer() is None
    yield
    assert obs_trace.active_tracer() is None


class TestTracer:
    def test_span_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("query") as query:
            with tracer.span("planning") as planning:
                pass
            with tracer.span("execution") as execution:
                with tracer.span("hash_join"):
                    pass
        names = {span.name: span for span in tracer.spans}
        assert names["planning"].parent_id == query.span_id
        assert names["execution"].parent_id == query.span_id
        assert names["hash_join"].parent_id == execution.span_id
        assert names["query"].parent_id is None
        assert planning.trace_id == tracer.trace_id

    def test_durations_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            span.set(rows=7)
        (finished,) = tracer.spans
        assert finished.duration_seconds >= 0
        assert finished.attributes == {"kind": "test", "rows": 7}
        assert finished.status == "ok"

    def test_exception_marks_span_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert tracer.spans[0].status == "error:ValueError"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", query="q1"):
            with tracer.span("child"):
                pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        spans = obs_trace.load_trace(path)
        assert len(spans) == 2
        by_name = {span["name"]: span for span in spans}
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["root"]["attributes"] == {"query": "q1"}

    def test_render_trace_tree(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("inner", rows=3):
                pass
        rendered = obs_trace.render_trace(
            obs_trace.load_trace(tracer.export_jsonl(tmp_path / "t.jsonl"))
        )
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  inner")
        assert "rows=3" in lines[1]
        assert "ms" in lines[0]


class TestModuleRecorder:
    def test_disabled_by_default_is_noop(self):
        with obs_trace.span("anything", x=1) as span:
            span.set(y=2)  # must not blow up on the null span
        assert obs_trace.active_tracer() is None

    def test_activate_routes_spans(self):
        tracer = Tracer()
        with obs_trace.use_tracer(tracer) as installed:
            assert installed is tracer
            with obs_trace.span("recorded"):
                pass
        with obs_trace.span("dropped"):
            pass
        assert [span.name for span in tracer.spans] == ["recorded"]

    def test_use_tracer_scopes_activation(self):
        with obs_trace.use_tracer() as tracer:
            assert obs_trace.is_active()
            with obs_trace.span("inside"):
                pass
        assert not obs_trace.is_active()
        assert tracer.spans[0].name == "inside"

    def test_nested_use_tracer_restores_the_outer_one(self):
        outer, inner = Tracer(), Tracer()
        with obs_trace.use_tracer(outer):
            with obs_trace.use_tracer(inner):
                with obs_trace.span("inner-work"):
                    pass
            with obs_trace.use_tracer(None):
                assert not obs_trace.is_active()
                with obs_trace.span("dropped"):
                    pass
            assert obs_trace.active_tracer() is outer
            with obs_trace.span("outer-work"):
                pass
        assert [span.name for span in inner.spans] == ["inner-work"]
        assert [span.name for span in outer.spans] == ["outer-work"]


class TestThreadLocalTracing:
    def test_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("anything", key=1) as recorded:
            recorded.set(more=2)  # must not raise
        assert current_tracer() is None

    def test_use_tracer_is_thread_local(self):
        tracer = Tracer(trace_id="local-1")
        seen = {}

        def other_thread():
            seen["other"] = current_tracer()

        with use_tracer(tracer):
            assert current_tracer() is tracer
            with span("work") as recorded:
                recorded.set(ok=True)
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["other"] is None
        assert current_tracer() is None
        assert [s.name for s in tracer.spans] == ["work"]
        assert tracer.spans[0].attributes["ok"] is True

    def test_nested_none_tracer_is_allowed(self):
        with use_tracer(None):
            with span("ignored"):
                pass
        assert current_tracer() is None

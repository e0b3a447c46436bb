"""Unit tests of span and event recording, the null twin and activation."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.telemetry import (
    NULL,
    JsonlSink,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    telemetry_session,
)


class TestTelemetry:
    def test_span_nesting_records_parent(self, memory_trace):
        with memory_trace.telemetry.span("outer"):
            with memory_trace.telemetry.span("inner"):
                pass
        by_name = {record["name"]: record for record in memory_trace.records()}
        assert by_name["inner"]["parent"] == "outer"
        assert "parent" not in by_name["outer"]  # None fields are dropped

    def test_span_is_written_even_when_the_block_raises(self, memory_trace):
        with pytest.raises(RuntimeError):
            with memory_trace.telemetry.span("failing"):
                raise RuntimeError("boom")
        with memory_trace.telemetry.span("after"):
            pass
        failing, after = memory_trace.records()
        assert (failing["kind"], failing["name"]) == ("span", "failing")
        assert "parent" not in after  # the raising span left the stack

    def test_scope_merges_and_restores(self, memory_trace):
        telemetry = memory_trace.telemetry
        with telemetry.scope(spec="abc", tenant="t0"):
            with telemetry.scope(worker="w1", tenant="t1", dropped=None):
                telemetry.emit("event", name="inner")
            telemetry.emit("event", name="outer")
        telemetry.emit("event", name="outside")
        inner, outer, outside = memory_trace.records()
        assert inner["ctx"] == {"spec": "abc", "tenant": "t1", "worker": "w1"}
        assert outer["ctx"] == {"spec": "abc", "tenant": "t0"}
        assert "ctx" not in outside

    def test_scope_flows_into_emitted_records(self, memory_trace):
        with memory_trace.telemetry.scope(spec="abcdef"):
            memory_trace.telemetry.emit("event", note="hello")
        (record,) = memory_trace.records()
        assert record["ctx"] == {"spec": "abcdef"}
        assert record["note"] == "hello"
        assert record["kind"] == "event"
        assert "pid" in record

    def test_concurrent_spans_write_whole_lines(self, memory_trace):

        def hammer():
            for _ in range(250):
                with memory_trace.telemetry.span("hit"):
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(memory_trace.records("hit")) == 1000

    def test_span_stacks_are_thread_local(self, memory_trace):

        def worker():
            with memory_trace.telemetry.span("child"):
                pass

        with memory_trace.telemetry.span("parent"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        (child,) = memory_trace.records("child")
        # The other thread's span must NOT inherit this thread's parent.
        assert "parent" not in child

    def test_records_are_written_as_spans_close(self, memory_trace):
        telemetry = memory_trace.telemetry
        with telemetry.span("outer"):
            with telemetry.span("first"):
                pass
            with telemetry.span("second"):
                with telemetry.span("leaf"):
                    pass
        written = [(r["name"], r.get("parent")) for r in memory_trace.records()]
        assert written == [
            ("first", "outer"), ("leaf", "second"), ("second", "outer"), ("outer", None),
        ]

    def test_span_records_carry_the_scope_context(self, memory_trace):
        telemetry = memory_trace.telemetry
        with telemetry.scope(spec="abc"):
            with telemetry.span("inside", app="bfs"):
                pass
        with telemetry.span("outside"):
            pass
        inside, outside = memory_trace.records()
        assert (inside["ctx"], inside["labels"]) == ({"spec": "abc"}, {"app": "bfs"})
        assert "ctx" not in outside

    def test_scope_context_is_thread_local(self, memory_trace):
        telemetry = memory_trace.telemetry

        def worker():
            telemetry.emit("event", name="other-thread")

        with telemetry.scope(spec="main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        (record,) = memory_trace.records("other-thread")
        assert "ctx" not in record

    def test_scope_is_restored_when_its_block_raises(self, memory_trace):
        telemetry = memory_trace.telemetry
        with pytest.raises(RuntimeError):
            with telemetry.scope(spec="abc"):
                raise RuntimeError("boom")
        telemetry.emit("event", name="after")
        (record,) = memory_trace.records("after")
        assert "ctx" not in record

    def test_close_closes_the_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(JsonlSink(path=str(path)))
        telemetry.emit("event", name="kept")
        telemetry.close()
        telemetry.emit("event", name="dropped")
        assert [json.loads(line)["name"] for line in path.read_text().splitlines()] == ["kept"]


class TestNullTelemetry:
    def test_noop_api(self):
        null = NullTelemetry()
        null.emit("event", data=1)
        with null.span("x", app="bfs"):
            with null.scope(spec="y"):
                pass
        null.close()

    def test_null_context_is_shared_not_allocated(self):
        assert NULL.span("a") is NULL.span("b") is NULL.scope(x=1)


class TestActivation:
    def test_default_is_the_null_singleton(self, monkeypatch):
        import repro.telemetry as mod

        monkeypatch.delenv("DALOREX_TELEMETRY_JSONL", raising=False)
        monkeypatch.setattr(mod, "_active", None)
        assert get_telemetry() is NULL

    def test_the_retired_on_switch_alone_stays_null(self, monkeypatch):
        import repro.telemetry as mod

        monkeypatch.setenv("DALOREX_TELEMETRY", "1")
        monkeypatch.delenv("DALOREX_TELEMETRY_JSONL", raising=False)
        monkeypatch.setattr(mod, "_active", None)
        assert get_telemetry() is NULL

    @pytest.mark.parametrize("value", ["", "   "], ids=["empty", "blank"])
    def test_a_blank_jsonl_env_stays_null(self, monkeypatch, value):
        import repro.telemetry as mod

        monkeypatch.setenv("DALOREX_TELEMETRY_JSONL", value)
        monkeypatch.setattr(mod, "_active", None)
        assert get_telemetry() is NULL

    def test_the_environment_is_read_once_per_process(self, monkeypatch, tmp_path):
        # Resolved once, the telemetry stays put; a pool worker forked later
        # inherits it rather than re-reading the variable.
        import repro.telemetry as mod

        monkeypatch.delenv("DALOREX_TELEMETRY_JSONL", raising=False)
        monkeypatch.setattr(mod, "_active", None)
        assert get_telemetry() is NULL
        monkeypatch.setenv("DALOREX_TELEMETRY_JSONL", str(tmp_path / "late.jsonl"))
        assert get_telemetry() is NULL
        assert not (tmp_path / "late.jsonl").exists()

    def test_jsonl_env_writes_records_to_that_file(self, monkeypatch, tmp_path):
        import repro.telemetry as mod

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("DALOREX_TELEMETRY_JSONL", str(path))
        monkeypatch.setattr(mod, "_active", None)
        telemetry = get_telemetry()
        try:
            with telemetry.span("work"):
                pass
        finally:
            telemetry.close()
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert (record["kind"], record["name"]) == ("span", "work")

    def test_telemetry_session_installs_and_restores(self):
        before = get_telemetry()
        installed = Telemetry(JsonlSink(stream=io.StringIO()))
        with telemetry_session(installed) as t:
            assert t is installed
            assert get_telemetry() is installed
        assert get_telemetry() is before

    def test_telemetry_session_restores_and_closes_when_the_block_raises(self):
        before = get_telemetry()
        stream = io.StringIO()
        installed = Telemetry(JsonlSink(stream=stream))
        with pytest.raises(RuntimeError):
            with telemetry_session(installed):
                raise RuntimeError("boom")
        assert get_telemetry() is before
        installed.emit("event", name="after-close")
        assert stream.getvalue() == ""

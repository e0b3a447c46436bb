"""The JSONL sink: one flushed, whole line per record, never a crash."""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path

import pytest

from repro.telemetry import JsonlSink


def lines(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class Exploding(io.StringIO):
    """A stream whose every write raises ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error
        self.attempts = 0

    def write(self, text):
        self.attempts += 1
        raise self.error("disk gone")


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [{}, {"path": "t.jsonl", "stream": io.StringIO()}],
                             ids=["neither", "both"])
    def test_needs_exactly_one_of_path_or_stream(self, kwargs):
        with pytest.raises(ValueError, match="exactly one"):
            JsonlSink(**kwargs)

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "trace.jsonl"
        sink = JsonlSink(path=str(path))
        sink.write({"kind": "event", "name": "x"})
        sink.close()
        assert [record["name"] for record in lines(path)] == ["x"]

    def test_appends_to_an_existing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for name in ("first", "second"):
            sink = JsonlSink(path=str(path))
            sink.write({"kind": "event", "name": name})
            sink.close()
        assert [record["name"] for record in lines(path)] == ["first", "second"]


class TestRecords:
    def test_lines_are_compact_and_key_sorted(self, monkeypatch):
        monkeypatch.setattr(os, "getpid", lambda: 42)
        stream = io.StringIO()
        JsonlSink(stream=stream).write({"name": "x", "kind": "span", "dur_s": 0.5})
        assert stream.getvalue() == '{"dur_s":0.5,"kind":"span","name":"x","pid":42}\n'

    def test_values_json_cannot_encode_are_written_as_strings(self):
        stream = io.StringIO()
        JsonlSink(stream=stream).write({"kind": "event", "path": Path("a/b")})
        assert json.loads(stream.getvalue())["path"] == "a/b"

    def test_pid_is_read_per_record(self, monkeypatch):
        # A pool worker forked after the sink was built writes its own pid.
        stream = io.StringIO()
        sink = JsonlSink(stream=stream)
        pids = iter([101, 202])
        monkeypatch.setattr(os, "getpid", lambda: next(pids))
        sink.write({"kind": "event", "pid": 7})
        sink.write({"kind": "event"})
        written = [json.loads(line)["pid"] for line in stream.getvalue().splitlines()]
        assert written == [101, 202]

    def test_each_record_is_flushed_as_it_is_written(self, tmp_path):
        # A process that dies without closing its sink loses no whole record.
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path=str(path))
        sink.write({"kind": "event", "name": "x"})
        try:
            assert [record["name"] for record in lines(path)] == ["x"]
        finally:
            sink.close()

    def test_two_sinks_on_one_file_interleave_whole_lines(self, tmp_path):
        # Each writer has its own append-mode handle, as pool workers do.
        path = tmp_path / "trace.jsonl"

        def writer(tag):
            sink = JsonlSink(path=str(path))
            for index in range(300):
                sink.write({"kind": "event", "name": tag, "i": index, "pad": "x" * 200})
            sink.close()

        threads = [threading.Thread(target=writer, args=(tag,)) for tag in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = lines(path)
        for tag in "ab":
            assert [r["i"] for r in records if r["name"] == tag] == list(range(300))


class TestClose:
    def test_writes_after_close_are_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path=str(path))
        sink.write({"kind": "event", "name": "kept"})
        sink.close()
        sink.write({"kind": "event", "name": "dropped"})
        assert [record["name"] for record in lines(path)] == ["kept"]

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(path=str(tmp_path / "trace.jsonl"))
        sink.close()
        sink.close()

    def test_a_borrowed_stream_is_left_open(self):
        stream = io.StringIO()
        sink = JsonlSink(stream=stream)
        sink.write({"kind": "event"})
        sink.close()
        assert not stream.closed
        sink.write({"kind": "event"})
        assert len(stream.getvalue().splitlines()) == 1

    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_a_failing_stream_disables_the_sink(self, error):
        # A full disk or a closed handle must never take the workload down.
        stream = Exploding(error)
        sink = JsonlSink(stream=stream)
        sink.write({"kind": "event"})
        sink.write({"kind": "event"})
        sink.close()
        assert stream.attempts == 1

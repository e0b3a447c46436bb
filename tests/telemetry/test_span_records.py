"""What a span or event record carries on its way to ``dalorex trace``."""

from __future__ import annotations

import inspect
import io
import json

from repro.telemetry import (
    JsonlSink,
    NullTelemetry,
    Telemetry,
    aggregate_spans,
    load_many,
)


class Ticks:
    """A clock that advances by a fixed step on every read."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def recorded(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_null_telemetry_mirrors_the_enabled_surface():
    # Sites call span/scope/emit unguarded, so every public method of
    # Telemetry must exist, with a compatible signature, on the null twin.
    public = [
        name for name, member in inspect.getmembers(Telemetry)
        if not name.startswith("_") and callable(member)
    ]
    assert set(public) == {"span", "scope", "emit", "close"}
    for name in public:
        enabled = inspect.signature(getattr(Telemetry, name))
        disabled = inspect.signature(getattr(NullTelemetry, name))
        assert list(disabled.parameters) == list(enabled.parameters), name


def test_span_record_fields():
    stream = io.StringIO()
    telemetry = Telemetry(sink=JsonlSink(stream=stream), clock=Ticks(0.25))
    with telemetry.span("plain"):
        pass
    with telemetry.span("labelled", app="bfs"):
        pass
    plain, labelled = recorded(stream)
    assert set(plain) == {"ts", "kind", "name", "dur_s", "pid"}
    assert (plain["kind"], plain["name"], plain["dur_s"]) == ("span", "plain", 0.25)
    assert set(labelled) == {"ts", "kind", "name", "dur_s", "labels", "pid"}
    assert labelled["labels"] == {"app": "bfs"}


def test_emit_drops_none_fields_and_freezes_the_context():
    stream = io.StringIO()
    telemetry = Telemetry(sink=JsonlSink(stream=stream))
    with telemetry.scope(spec="abc", worker=None):
        telemetry.emit("event", name="lease.granted", attempt=1, reason=None)
        with telemetry.scope(worker="w0"):
            telemetry.emit("event", name="inner")
    telemetry.emit("event", name="outside")
    granted, inner, outside = recorded(stream)
    assert set(granted) == {"ts", "kind", "name", "attempt", "ctx", "pid"}
    assert granted["ctx"] == {"spec": "abc"}
    assert inner["ctx"] == {"spec": "abc", "worker": "w0"}
    assert "ctx" not in outside


def test_load_many_merges_files_in_order(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path, names in ((first, ["x", "y"]), (second, ["z"])):
        telemetry = Telemetry(sink=JsonlSink(path=str(path)))
        for name in names:
            with telemetry.span(name):
                pass
        telemetry.close()
    with second.open("a", encoding="utf-8") as stream:
        stream.write("garbage-line\n")
    records = load_many([str(first), str(second)])
    assert [record["name"] for record in records] == ["x", "y", "z"]
    assert load_many([]) == []


def test_span_table_quantiles_are_observed_durations():
    records = [
        {"kind": "span", "name": "work", "dur_s": duration}
        for duration in (0.003, 0.001, 0.002)
    ]
    stats = aggregate_spans(records)["work"]
    assert (stats["p50_s"], stats["p99_s"], stats["max_s"]) == (0.002, 0.003, 0.003)
    assert stats["count"] == 3
    assert stats["parents"] == []
    # Nearest rank: p50 of 1, 2, 3, 4 is the 2nd value, not the 3rd.
    records = [{"kind": "span", "name": "even", "dur_s": d} for d in (4, 2, 1, 3)]
    stats = aggregate_spans(records)["even"]
    assert (stats["p50_s"], stats["p99_s"]) == (2.0, 4.0)

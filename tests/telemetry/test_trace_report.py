"""The ``dalorex trace`` aggregation pipeline: JSONL in, span table out."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    JsonlSink,
    Telemetry,
    aggregate_spans,
    format_trace_report,
    load_records,
)


def _span(name, dur, parent=None):
    record = {"kind": "span", "name": name, "dur_s": dur}
    if parent is not None:
        record["parent"] = parent
    return record


class TestLoadRecords:
    def test_skips_malformed_and_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(
            (json.dumps(_span("ok", 0.5)) + "\n"
             + "\n"
             + "{torn line\n"
             + '"not-an-object"\n').encode("utf-8")
            + b"\xff\xfe garbage\n"
            + (json.dumps(_span("ok", 1.5)) + "\n").encode("utf-8")
        )
        records = list(load_records(str(path)))
        assert len(records) == 2
        assert all(record["name"] == "ok" for record in records)

    def test_a_torn_final_line_is_skipped(self, tmp_path):
        # A writer that crashed mid-record leaves a last line with no newline.
        path = tmp_path / "trace.jsonl"
        whole = json.dumps(_span("ok", 0.5)) + "\n"
        path.write_text(whole + whole[: len(whole) // 2], encoding="utf-8")
        assert [record["name"] for record in load_records(str(path))] == ["ok"]

    def test_round_trips_the_sink_format(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sink=JsonlSink(path=str(path)))
        with telemetry.span("alpha"):
            with telemetry.span("beta"):
                pass
        telemetry.close()
        aggregates = aggregate_spans(load_records(str(path)))
        assert set(aggregates) == {"alpha", "beta"}
        assert aggregates["beta"]["parents"] == ["alpha"]


class TestAggregateSpans:
    def test_groups_by_name_with_quantiles(self):
        records = [_span("load", 0.001 * i) for i in range(1, 101)]
        aggregates = aggregate_spans(records)
        stats = aggregates["load"]
        assert stats["count"] == 100
        assert stats["max_s"] == 0.1
        assert stats["p50_s"] <= stats["p99_s"] <= stats["max_s"]
        assert stats["total_s"] > 0

    def test_ignores_non_span_and_malformed_records(self):
        records = [
            {"kind": "event", "name": "x"},
            {"kind": "span", "name": "missing-duration"},
            {"kind": "span", "dur_s": 1.0},
            {"kind": "span", "name": "good", "dur_s": 1.0},
        ]
        assert set(aggregate_spans(records)) == {"good"}

    @pytest.mark.parametrize(
        "durations,p50,p99",
        [
            ((7,), 7, 7),
            ((2, 1), 1, 2),
            ((3, 1, 2), 2, 3),
            ((4, 2, 1, 3), 2, 4),
            (tuple(range(100, 0, -1)), 50, 99),
        ],
        ids=["one", "two", "three", "four", "hundred"],
    )
    def test_quantiles_are_nearest_rank(self, durations, p50, p99):
        # The smallest duration with at least q * n of the n at or below it.
        stats = aggregate_spans([_span("s", d) for d in durations])["s"]
        assert (stats["p50_s"], stats["p99_s"]) == (p50, p99)
        assert stats["max_s"] == max(durations)

    def test_total_is_the_sum_of_float_durations(self):
        stats = aggregate_spans([_span("s", 1), _span("s", 2.5)])["s"]
        assert stats["total_s"] == 3.5
        assert all(isinstance(stats[k], float) for k in ("total_s", "p50_s", "max_s"))

    def test_skips_spans_whose_duration_is_not_a_number(self):
        records = [_span("s", "1.0"), _span("s", None), _span("s", [1]), _span("s", 2.0)]
        stats = aggregate_spans(records)["s"]
        assert (stats["count"], stats["total_s"]) == (1, 2.0)

    def test_parents_that_are_not_names_are_ignored(self):
        records = [_span("leaf", 0.1, parent=7), _span("leaf", 0.2, parent="root")]
        assert aggregate_spans(records)["leaf"]["parents"] == ["root"]

    def test_collects_distinct_parents(self):
        records = [
            _span("leaf", 0.1, parent="a"),
            _span("leaf", 0.2, parent="b"),
            _span("leaf", 0.3, parent="a"),
        ]
        assert aggregate_spans(records)["leaf"]["parents"] == ["a", "b"]


class TestFormatTraceReport:
    def test_empty_aggregates(self):
        assert format_trace_report({}) == "no span records found\n"

    def test_table_sorted_by_total_with_footer(self):
        aggregates = aggregate_spans(
            [_span("small", 0.001)] + [_span("big", 1.0)] * 3
        )
        report = format_trace_report(aggregates)
        lines = report.splitlines()
        assert lines[0].startswith("span")
        assert lines[2].startswith("big")  # widest total first
        assert lines[3].startswith("small")
        assert lines[-1].startswith("all spans")
        assert " 4 " in lines[-1]  # total count across spans

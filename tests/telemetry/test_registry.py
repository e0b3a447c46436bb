"""Unit tests of the telemetry registry: counters, gauges, histograms, spans."""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import (
    DEFAULT_COUNT_EDGES,
    DEFAULT_TIME_EDGES,
    NULL,
    Histogram,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    telemetry_session,
)
from repro.telemetry.sink import open_memory_sink


class TestHistogram:
    def test_rejects_unsorted_or_empty_edges(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])

    def test_counts_sum_min_max(self):
        hist = Histogram([1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(555.5)
        assert hist.minimum == 0.5
        assert hist.maximum == 500.0
        # One observation per bucket, the last in the +Inf overflow slot.
        assert hist.buckets == [1, 1, 1, 1]

    def test_boundary_values_fall_in_the_lower_bucket(self):
        hist = Histogram([1.0, 2.0])
        hist.observe(1.0)
        hist.observe(2.0)
        assert hist.buckets == [1, 1, 0]

    def test_single_observation_quantiles_are_exact(self):
        hist = Histogram(DEFAULT_TIME_EDGES)
        hist.observe(0.00042)
        # Clamping to observed min/max beats bucket-edge interpolation.
        assert hist.quantile(0.5) == pytest.approx(0.00042)
        assert hist.quantile(0.99) == pytest.approx(0.00042)

    def test_quantiles_are_monotone_and_bounded(self):
        hist = Histogram(DEFAULT_COUNT_EDGES)
        for value in range(1, 1001):
            hist.observe(float(value))
        previous = 0.0
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            estimate = hist.quantile(q)
            assert hist.minimum <= estimate <= hist.maximum
            assert estimate >= previous
            previous = estimate
        # p50 of uniform 1..1000 must land in the right ballpark.
        assert 256.0 <= hist.quantile(0.5) <= 1000.0 / 2 * 2

    def test_empty_histogram_quantile_is_zero(self):
        hist = Histogram([1.0])
        assert hist.quantile(0.5) == 0.0
        assert hist.to_dict()["min"] is None
        assert hist.to_dict()["max"] is None

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram([1.0])
        hist.observe(0.5)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_to_dict_is_json_ready(self):
        hist = Histogram([1.0, 2.0])
        hist.observe(1.5)
        as_dict = hist.to_dict()
        json.dumps(as_dict)  # must not raise
        assert as_dict["count"] == 1
        assert as_dict["p50"] == pytest.approx(1.5)


class TestTelemetryRegistry:
    def test_counter_accumulates_per_label_set(self):
        t = Telemetry()
        t.count("engine.cycle.events", 3, kind="deliver")
        t.count("engine.cycle.events", 2, kind="deliver")
        t.count("engine.cycle.events", 1, kind="refill")
        snap = t.snapshot()
        assert snap["counters"]["engine.cycle.events"] == {
            "kind=deliver": 5,
            "kind=refill": 1,
        }

    def test_label_order_does_not_split_series(self):
        t = Telemetry()
        t.count("x", a="1", b="2")
        t.count("x", b="2", a="1")
        assert t.snapshot()["counters"]["x"] == {"a=1,b=2": 2}

    def test_gauge_keeps_latest_value(self):
        t = Telemetry()
        t.gauge("broker.queue_depth", 4)
        t.gauge("broker.queue_depth", 2)
        assert t.snapshot()["gauges"]["broker.queue_depth"] == {"": 2.0}

    def test_first_observation_fixes_the_edges(self):
        t = Telemetry()
        t.observe("depth", 3.0, edges=(1.0, 10.0))
        # Later edge arguments are ignored: concurrent observers must agree.
        t.observe("depth", 5.0, edges=(2.0, 4.0, 8.0))
        hist = t.snapshot()["histograms"]["depth"][""]
        assert hist["edges"] == [1.0, 10.0]
        assert hist["count"] == 2

    def test_observe_defaults_to_count_edges(self):
        t = Telemetry()
        t.observe("sizes", 100.0)
        assert t.snapshot()["histograms"]["sizes"][""]["edges"] == list(
            DEFAULT_COUNT_EDGES
        )

    def test_span_aggregates_into_seconds_histogram(self):
        ticks = iter(float(i) for i in range(100))
        t = Telemetry(clock=lambda: next(ticks))
        with t.span("engine.analytic.epoch", mode="batched"):
            pass
        hist = t.snapshot()["histograms"]["span.engine.analytic.epoch.seconds"]
        assert hist["mode=batched"]["count"] == 1
        assert hist["mode=batched"]["sum"] == pytest.approx(1.0)

    def test_span_nesting_records_parent(self):
        sink = open_memory_sink()
        t = Telemetry(sink=sink)
        with t.span("outer"):
            with t.span("inner"):
                pass
        lines = [json.loads(line) for line in sink._stream.getvalue().splitlines()]
        by_name = {record["name"]: record for record in lines}
        assert by_name["inner"]["parent"] == "outer"
        assert "parent" not in by_name["outer"]  # None fields are dropped

    def test_span_ids_are_unique_and_parents_link(self):
        sink = open_memory_sink()
        t = Telemetry(sink=sink)
        with t.span("outer"):
            with t.span("inner"):
                pass
        with t.span("outer"):
            pass
        lines = [json.loads(line) for line in sink._stream.getvalue().splitlines()]
        inner, first_outer, second_outer = lines  # emitted as each span closes
        assert len({record["span_id"] for record in lines}) == 3
        assert inner["parent_id"] == first_outer["span_id"]
        assert "parent_id" not in first_outer and "parent_id" not in second_outer

    def test_span_aggregates_even_when_the_block_raises(self):
        t = Telemetry()
        with pytest.raises(RuntimeError):
            with t.span("failing"):
                raise RuntimeError("boom")
        assert t.snapshot()["histograms"]["span.failing.seconds"][""]["count"] == 1

    def test_scope_merges_and_restores(self):
        t = Telemetry()
        with t.scope(spec="abc", tenant="t0"):
            with t.scope(worker="w1", tenant="t1", dropped=None):
                assert t.current_context() == {
                    "spec": "abc", "tenant": "t1", "worker": "w1",
                }
            assert t.current_context() == {"spec": "abc", "tenant": "t0"}
        assert t.current_context() == {}

    def test_scope_flows_into_emitted_records(self):
        sink = open_memory_sink()
        t = Telemetry(sink=sink)
        with t.scope(spec="abcdef"):
            t.emit("event", note="hello")
        record = json.loads(sink._stream.getvalue())
        assert record["ctx"] == {"spec": "abcdef"}
        assert record["note"] == "hello"
        assert record["kind"] == "event"
        assert "pid" in record

    def test_reset_clears_aggregates(self):
        t = Telemetry()
        t.count("a")
        t.gauge("b", 1)
        t.observe("c", 1.0)
        t.reset()
        snap = t.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_thread_safety_of_counters(self):
        t = Telemetry()

        def hammer():
            for _ in range(1000):
                t.count("hits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert t.snapshot()["counters"]["hits"][""] == 8000

    def test_span_stacks_are_thread_local(self):
        sink = open_memory_sink()
        t = Telemetry(sink=sink)
        seen = []

        def worker():
            with t.span("child"):
                pass

        with t.span("parent"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        records = [json.loads(line) for line in sink._stream.getvalue().splitlines()]
        child = next(r for r in records if r["name"] == "child")
        # The other thread's span must NOT inherit this thread's parent.
        assert "parent" not in child
        assert not seen


class TestNullTelemetry:
    def test_disabled_flag_and_noop_api(self):
        null = NullTelemetry()
        assert null.enabled is False
        null.count("x")
        null.gauge("x", 1)
        null.observe("x", 1.0)
        null.emit("event", data=1)
        with null.span("x"):
            with null.scope(spec="y"):
                assert null.current_context() == {}
        assert null.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "created": None,
        }
        null.reset()
        null.close()

    def test_null_context_is_shared_not_allocated(self):
        assert NULL.span("a") is NULL.span("b") is NULL.scope(x=1)


class TestActivation:
    def test_default_is_the_null_singleton(self, monkeypatch):
        import repro.telemetry as mod

        monkeypatch.delenv("DALOREX_TELEMETRY", raising=False)
        monkeypatch.delenv("DALOREX_TELEMETRY_JSONL", raising=False)
        monkeypatch.setattr(mod, "_active", None)
        assert get_telemetry() is NULL

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy_env_enables(self, monkeypatch, value):
        import repro.telemetry as mod

        monkeypatch.setenv("DALOREX_TELEMETRY", value)
        monkeypatch.delenv("DALOREX_TELEMETRY_JSONL", raising=False)
        monkeypatch.setattr(mod, "_active", None)
        telemetry = get_telemetry()
        assert telemetry.enabled is True
        assert telemetry.sink is None

    def test_falsy_env_stays_disabled(self, monkeypatch):
        import repro.telemetry as mod

        monkeypatch.setenv("DALOREX_TELEMETRY", "0")
        monkeypatch.delenv("DALOREX_TELEMETRY_JSONL", raising=False)
        monkeypatch.setattr(mod, "_active", None)
        assert get_telemetry() is NULL

    def test_jsonl_env_implies_enabled(self, monkeypatch, tmp_path):
        import repro.telemetry as mod

        path = tmp_path / "trace.jsonl"
        monkeypatch.delenv("DALOREX_TELEMETRY", raising=False)
        monkeypatch.setenv("DALOREX_TELEMETRY_JSONL", str(path))
        monkeypatch.setattr(mod, "_active", None)
        telemetry = get_telemetry()
        try:
            assert telemetry.enabled is True
            assert telemetry.sink is not None
        finally:
            telemetry.close()
            mod.set_telemetry(NULL)

    def test_telemetry_session_installs_and_restores(self):
        before = get_telemetry()
        with telemetry_session() as t:
            assert get_telemetry() is t
            assert t.enabled
        assert get_telemetry() is before

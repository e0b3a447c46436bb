"""Instrumented call sites write the span records ``dalorex trace`` reads."""

from __future__ import annotations

import json
import os

from repro.core.config import MachineConfig
from repro.runtime import ExperimentRunner, ResultCache, RunSpec
from repro.telemetry import JsonlSink, NULL, Telemetry, get_telemetry, telemetry_session


def _spec(seed: int = 1) -> RunSpec:
    return RunSpec(
        app="bfs",
        dataset="rmat16",
        config=MachineConfig(width=2, height=2, engine="analytic").validate(),
        scale=0.05,
        seed=seed,
    )


class TestRunnerSpans:
    def test_each_executed_spec_writes_one_execute_and_one_serialize(self, memory_trace):
        with ExperimentRunner() as runner:
            runner.run_batch([_spec(), _spec(), _spec(2)])
        execute = memory_trace.records("runtime.execute")
        serialize = memory_trace.records("runtime.serialize")
        assert len(execute) == len(serialize) == 2  # the duplicate ran once
        assert all(record["labels"] == {"app": "bfs"} for record in execute)
        assert all("labels" not in record for record in serialize)
        specs = {_spec().key()[:12], _spec(2).key()[:12]}
        for records in (execute, serialize):
            assert {record["ctx"]["spec"] for record in records} == specs

    def test_memo_hit_writes_no_execute_span(self, memory_trace):
        with ExperimentRunner() as runner:
            runner.run_batch([_spec()])
            runner.run_batch([_spec()])
            assert runner.stats.deduplicated == 1
        assert len(memory_trace.records("runtime.execute")) == 1

    def test_cache_hit_writes_no_execute_span(self, memory_trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with ExperimentRunner(cache=cache) as runner:
            runner.run(_spec())
        with ExperimentRunner(cache=cache) as runner:
            runner.run(_spec())
            assert runner.stats.cache_hits == 1
        assert len(memory_trace.records("runtime.execute")) == 1

    def test_pool_workers_stamp_their_own_pid(self, monkeypatch, tmp_path):
        # The parent resolves its telemetry before the pool starts; a forked
        # worker inherits that sink, a spawned one reads the variable.
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("DALOREX_TELEMETRY_JSONL", str(path))
        with telemetry_session(Telemetry(JsonlSink(path=str(path)))):
            with ExperimentRunner(jobs=2) as runner:
                runner.run_batch([_spec(1), _spec(2), _spec(3)])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        execute = [r for r in records if r.get("name") == "runtime.execute"]
        assert len(execute) == 3
        assert os.getpid() not in {record["pid"] for record in execute}


class TestDisabledPath:
    def test_disabled_telemetry_is_the_shared_null(self):
        with telemetry_session(NULL):
            assert get_telemetry() is NULL
            with ExperimentRunner() as runner:
                result = runner.run(_spec())
            assert result.cycles > 0

    def test_engines_cache_the_telemetry_reference(self, memory_trace):
        from repro.apps import make_kernel
        from repro.core.machine import DalorexMachine
        from repro.graph.generators import chain_graph

        machine = DalorexMachine(
            MachineConfig(width=2, height=2, engine="cycle"),
            make_kernel("bfs"),
            chain_graph(8, weighted=False, seed=1),
        )
        assert machine._make_engine().telemetry is memory_trace.telemetry

"""Invariant tracer: conservation holds on real runs, and broken counters are caught."""

import numpy as np
import pytest

from repro.apps import make_kernel
from repro.core.config import MachineConfig
from repro.core.engine_cycle import CycleEngine
from repro.core.machine import DalorexMachine
from repro.core.results import AggregateCounters
from repro.core.state import CoreState
from repro.errors import InvariantViolation
from repro.graph.generators import rmat_graph
from repro.verify.tracing import InvariantTracer


def run_machine(engine, app="sssp", barrier=False, detailed=False, **kernel_kwargs):
    graph = rmat_graph(6, edge_factor=5, seed=11)
    if app in ("bfs", "sssp") and "root" not in kernel_kwargs:
        kernel_kwargs["root"] = graph.highest_degree_vertex()
    config = MachineConfig(width=3, height=3, engine=engine, barrier=barrier)
    machine = DalorexMachine(config, make_kernel(app, **kernel_kwargs), graph)
    machine.detailed_trace = detailed
    result = machine.run(compute_energy=False)
    return machine, result


class TestConservationOnRealRuns:
    @pytest.mark.parametrize("engine", ["cycle", "analytic"])
    @pytest.mark.parametrize("app,barrier", [
        ("sssp", False), ("sssp", True), ("pagerank", True), ("spmv", False),
        ("wcc", False), ("bfs", False),
    ])
    def test_run_passes_always_on_checks(self, engine, app, barrier):
        machine, result = run_machine(engine, app=app, barrier=barrier)
        tracer = machine.tracer
        assert tracer is not None
        summary = tracer.summary()
        assert summary["verified"] is True
        assert summary["consumed"] == result.counters.tasks_executed
        assert summary["spawned"]["message"] == result.counters.messages
        assert tracer.total_spawned == tracer.consumed

    def test_seed_refill_and_message_origins_are_distinguished(self):
        machine, _ = run_machine("cycle", app="sssp", barrier=False)
        spawned = machine.tracer.spawned
        assert spawned["seed"] >= 1          # the root exploration
        assert spawned["message"] > 0        # T2/T3 fan-out
        assert spawned["refill"] > 0         # T4 pulls from the local frontier

    def test_queue_high_water_marks_recorded(self):
        machine, _ = run_machine("cycle", app="pagerank", barrier=True,
                                 num_iterations=2)
        high_water = machine.tracer.queue_high_water
        assert set(high_water) == set(range(9))
        assert max(high_water.values()) >= 1


class TestDetailedTrace:
    def test_epoch_records_only_when_opted_in(self):
        machine, result = run_machine("analytic", app="pagerank", barrier=True,
                                      detailed=True, num_iterations=3)
        records = machine.tracer.epoch_records
        assert len(records) == result.epochs == 3
        # Per-epoch deltas: every pagerank epoch processes every edge once.
        edges = result.counters.edges_processed
        assert sum(record["edges_processed"] for record in records) == edges
        assert all(record["tasks_executed"] > 0 for record in records)

        machine, _ = run_machine("analytic", app="pagerank", barrier=True,
                                 num_iterations=3)
        assert machine.tracer.epoch_records == []

    def test_per_task_histograms_balance(self):
        machine, _ = run_machine("cycle", app="sssp", detailed=True)
        tracer = machine.tracer
        assert sum(tracer.spawned_by_task.values()) == tracer.total_spawned
        assert sum(tracer.consumed_by_task.values()) == tracer.consumed
        assert tracer.spawned_by_task == tracer.consumed_by_task


class TestInjectedBugsAreCaught:
    """Acceptance: a deliberately injected off-by-one in a work counter is
    caught by the invariant tracer in (under) one run."""

    def test_off_by_one_in_tasks_executed_is_caught(self, monkeypatch):
        # The cycle engine writes its per-task counts back once per drain.
        original = CycleEngine._drain_events
        state = {"injected": False}

        def tampered(self):
            started = original(self)
            if not state["injected"] and started:
                state["injected"] = True
                self.counters.tasks_executed += 1  # the injected off-by-one
            return started

        monkeypatch.setattr(CycleEngine, "_drain_events", tampered)
        with pytest.raises(InvariantViolation, match="tasks_executed"):
            run_machine("cycle", app="sssp")
        assert state["injected"]

    def test_dropped_message_count_is_caught(self, monkeypatch):
        original = CycleEngine._fold_traffic
        state = {"injected": False}

        def tampered(self):
            remote = bool(self._sent_src)  # non-local messages sent since the last fold
            original(self)
            if not state["injected"] and remote:
                state["injected"] = True
                self.counters.messages -= 1  # lose one message

        monkeypatch.setattr(CycleEngine, "_fold_traffic", tampered)
        with pytest.raises(InvariantViolation, match="messages"):
            run_machine("cycle", app="sssp")
        assert state["injected"]


class TestTracerUnit:
    def test_epoch_monotonicity_violation(self):
        tracer = InvariantTracer()

        class Counters:
            instructions = 10
            tasks_executed = 5
            messages = 3
            flits = 6
            flit_hops = 9
            edges_processed = 4

        tracer.epoch_finished(0, Counters())
        Counters.instructions = 9  # goes backwards
        with pytest.raises(InvariantViolation, match="moved backwards"):
            tracer.epoch_finished(1, Counters())

    def test_summary_shape(self):
        tracer = InvariantTracer(detailed=True)
        summary = tracer.summary()
        assert summary["consumed"] == 0
        assert summary["spawned"] == {"seed": 0, "message": 0, "refill": 0}
        assert summary["detailed"] is True


class TestQueueChecks:
    """The queue checks read only the queues that were pushed, and still
    catch parked work, a push/pop imbalance and every high-water mark."""

    @staticmethod
    def _state():
        state = CoreState(3, {0: 4, 1: 4})
        for item in range(3):
            state.push_invocation(2, 1, item)
        state.push_invocation(0, 0, "x")
        for task in (1, 1, 1):
            state.pop_invocation(2, task)
        return state

    def test_high_water_marks_are_the_max_over_tasks(self):
        state = self._state()
        tracer = InvariantTracer()
        tracer.record_queue_stats(state)
        assert tracer.queue_high_water == {0: 1, 1: 0, 2: 3}
        marks = state.queue_max_occupancy
        assert tracer.queue_high_water == {
            tile: max(marks[2 * tile: 2 * tile + 2]) for tile in range(3)}

    def test_parked_work_is_caught(self):
        with pytest.raises(InvariantViolation, match="1 invocations still parked"):
            InvariantTracer().verify(AggregateCounters(), self._state())

    def test_push_pop_imbalance_is_caught(self):
        state = self._state()
        state.pop_invocation(0, 0)
        state.queue_popped[5] += 1
        with pytest.raises(InvariantViolation, match="4 pushed, 5 popped"):
            InvariantTracer().verify(AggregateCounters(), state)

    def test_drained_queues_pass(self):
        state = self._state()
        state.pop_invocation(0, 0)
        tracer = InvariantTracer()
        tracer.verify(AggregateCounters(), state)
        assert tracer.summary()["verified"] is True

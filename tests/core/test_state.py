"""Columnar core state: the TSU policy, queue balance, state reuse.

Four families of checks guard the structure-of-arrays core:

* the scheduling policies of ``CoreState.select_task``, case by case;
* ``CoreState.select_task`` agrees with :class:`TaskSchedulingUnit`, an
  object-shaped scheduler kept here as the oracle, on random queue states
  and on every lone-ready-task state from every round-robin cursor;
* a drained run leaves every queue empty, every tile's pending count at
  zero and the queue push/pop totals balanced;
* two back-to-back ``run()`` calls on fresh machines must
  produce byte-identical payloads (no state leakage through pooled
  contexts or the shared topology caches);
* a queue exists only once something was pushed to it, so an analytic
  run on a 16,384-tile machine holds no deque and its build stays small.
"""

import functools
import json
import tracemalloc
from collections import deque
from typing import Dict, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import make_kernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.core.state import OCCUPANCY, ROUND_ROBIN, CoreState
from repro.errors import ConfigurationError
from repro.graph.generators import rmat_graph
from repro.runtime import RunSpec
from repro.runtime.backends import execute_to_payload


class TaskSchedulingUnit:
    """Object-shaped task scheduling unit: the oracle for ``select_task``.

    One instance per tile, reading per-task queue objects.  The paper's TSU
    runs a task only when its input queue is non-empty; the occupancy policy
    gives high priority to a nearly full input queue and breaks ties toward
    the larger queue, and round-robin rotates a cursor over the task ids.
    (The paper's medium level needs an output-queue occupancy that neither
    this oracle nor the simulator models.)
    """

    def __init__(
        self,
        task_ids: Sequence[int],
        capacities: Dict[int, int],
        policy: str = OCCUPANCY,
        high_threshold: float = 0.75,
    ) -> None:
        self.task_ids = list(task_ids)
        self.capacities = dict(capacities)
        self.policy = policy
        self.high_threshold = high_threshold
        self._round_robin_cursor = 0

    def select_task(self, input_queues: Dict[int, deque]):
        ready = [tid for tid in self.task_ids if input_queues[tid]]
        if not ready:
            return None
        if self.policy == ROUND_ROBIN:
            return self._select_round_robin(ready)
        return self._select_by_occupancy(ready, input_queues)

    def _select_round_robin(self, ready: Sequence[int]) -> int:
        ordered = sorted(ready)
        for _ in range(len(self.task_ids)):
            candidate = self.task_ids[self._round_robin_cursor % len(self.task_ids)]
            self._round_robin_cursor += 1
            if candidate in ordered:
                return candidate
        return ordered[0]

    def _select_by_occupancy(self, ready: Sequence[int], input_queues) -> int:
        def priority(task_id: int) -> tuple:
            occupancy = len(input_queues[task_id])
            capacity = self.capacities[task_id]
            level = 2 if occupancy / capacity >= self.high_threshold else 0
            return (level, capacity, occupancy)

        return max(sorted(ready), key=priority)


class TestQueueColumns:
    def test_push_pop_and_stats(self):
        state = CoreState(2, {0: 4, 1: 8})
        state.push_invocation(1, 0, "a")
        state.push_invocation(1, 0, "b")
        assert state.tile_is_idle(0)
        assert not state.tile_is_idle(1)
        assert state.pop_invocation(1, 0) == "a"
        qi = 1 * state.num_tasks + 0
        assert state.queue_pushed[qi] == 2
        assert state.queue_popped[qi] == 1
        assert state.queue_max_occupancy[qi] == 2
        assert state.queue_pushed[1 * state.num_tasks + 1] == 0

    def test_push_past_capacity_accepted(self):
        state = CoreState(1, {0: 1})
        state.push_invocation(0, 0, "x")
        state.push_invocation(0, 0, "y")
        assert list(state.queues[0]) == ["x", "y"]
        assert state.queue_max_occupancy[0] == 2

    def test_sparse_task_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="dense"):
            CoreState(1, {0: 4, 2: 4})

    def test_fifo_order_within_one_queue(self):
        state = CoreState(1, {0: 4})
        for item in "abc":
            state.push_invocation(0, 0, item)
        assert [state.pop_invocation(0, 0) for _ in range(3)] == ["a", "b", "c"]

    def test_queues_are_independent_per_tile_and_task(self):
        state = CoreState(2, {0: 4, 1: 4})
        state.push_invocation(0, 1, "t0k1")
        state.push_invocation(1, 0, "t1k0")
        state.push_invocation(1, 1, "t1k1")
        assert state.pop_invocation(1, 1) == "t1k1"
        assert state.pop_invocation(0, 1) == "t0k1"
        assert state.pop_invocation(1, 0) == "t1k0"
        assert state.queue_pushed == [0, 1, 1, 1]
        assert state.queue_popped == [0, 1, 1, 1]

    def test_high_water_mark_survives_pops(self):
        state = CoreState(1, {0: 8})
        for item in range(3):
            state.push_invocation(0, 0, item)
        for _ in range(3):
            state.pop_invocation(0, 0)
        state.push_invocation(0, 0, "again")
        assert state.queue_max_occupancy[0] == 3

    def test_pop_from_empty_queue_counts_nothing(self):
        state = CoreState(1, {0: 4})
        with pytest.raises(IndexError):
            state.pop_invocation(0, 0)
        assert state.queue_popped[0] == 0

    def test_capacities_follow_task_ids(self):
        state = CoreState(3, {0: 8, 1: 2048, 2: 32})
        assert state.num_tasks == 3
        assert state.queue_capacity == [8, 2048, 32]


#: Columns with one entry per tile, all zero (or False) on a fresh state.
PER_TILE_COLUMNS = (
    "busy",
    "refill_pending",
    "pu_busy_until",
    "pu_busy_cycles",
    "pu_instructions",
    "tsu_cursor",
    "noc_inject_free",
    "noc_eject_free",
)
#: Columns with one entry per ``tile * num_tasks + task`` queue slot.
QUEUE_COLUMNS = ("queues", "queue_pushed", "queue_popped", "queue_max_occupancy")


class TestFreshState:
    @pytest.mark.parametrize("column", PER_TILE_COLUMNS)
    def test_per_tile_column_starts_zeroed(self, column):
        values = getattr(CoreState(3, {0: 4, 1: 8}), column)
        assert len(values) == 3
        assert not any(values)

    @pytest.mark.parametrize("column", QUEUE_COLUMNS)
    def test_queue_column_has_one_slot_per_tile_and_task(self, column):
        values = getattr(CoreState(3, {0: 4, 1: 8}), column)
        assert len(values) == 3 * 2
        assert not any(values)

    def test_every_tile_starts_idle(self):
        state = CoreState(4, {0: 4, 1: 8})
        assert all(state.tile_is_idle(tile) for tile in range(4))

    def test_frontier_buckets_are_distinct(self):
        state = CoreState(3, {0: 4})
        state.frontier[1].append(7)
        assert state.frontier == [[], [7], []]


def fill(state: CoreState, occupancies: Dict[int, int], tile: int = 0) -> None:
    for task_id, count in occupancies.items():
        for item in range(count):
            state.push_invocation(tile, task_id, item)


class TestSelectTask:
    """The scheduling policies of CoreState.select_task, case by case."""

    @pytest.mark.parametrize("policy", [OCCUPANCY, ROUND_ROBIN])
    def test_nothing_ready_returns_none(self, policy):
        state = CoreState(2, {0: 4, 1: 4}, policy)
        fill(state, {0: 1}, tile=1)
        assert state.select_task(0) is None

    @pytest.mark.parametrize("policy", [OCCUPANCY, ROUND_ROBIN])
    def test_single_ready_task_selected(self, policy):
        state = CoreState(1, {0: 4, 1: 4}, policy)
        fill(state, {1: 1})
        assert state.select_task(0) == 1

    def test_round_robin_rotates_over_ready_tasks(self):
        state = CoreState(1, {0: 4, 1: 4, 2: 4}, ROUND_ROBIN)
        fill(state, {0: 4, 2: 4})
        picks = []
        for _ in range(4):
            choice = state.select_task(0)
            picks.append(choice)
            state.pop_invocation(0, choice)
        # The cursor skips the empty task 1 and wraps around.
        assert picks == [0, 2, 0, 2]

    def test_round_robin_cursors_are_per_tile(self):
        state = CoreState(2, {0: 4, 1: 4}, ROUND_ROBIN)
        fill(state, {0: 2, 1: 2}, tile=0)
        fill(state, {0: 2, 1: 2}, tile=1)
        assert state.select_task(0) == 0
        assert state.select_task(1) == 0
        assert state.select_task(0) == 1

    def test_nearly_full_queue_wins(self):
        state = CoreState(1, {0: 4, 1: 100}, OCCUPANCY)
        fill(state, {0: 3, 1: 1})  # task 0 at the 0.75 threshold: high priority
        assert state.select_task(0) == 0

    def test_below_threshold_has_no_priority(self):
        state = CoreState(1, {0: 4, 1: 100}, OCCUPANCY)
        fill(state, {0: 2, 1: 1})  # task 0 at 0.5: tie broken by capacity
        assert state.select_task(0) == 1

    def test_ties_break_toward_the_larger_queue(self):
        state = CoreState(1, {0: 32, 1: 2048}, OCCUPANCY)
        fill(state, {0: 1, 1: 1})
        assert state.select_task(0) == 1

    def test_equal_capacity_breaks_toward_occupancy_then_lowest_id(self):
        state = CoreState(1, {0: 64, 1: 64, 2: 64}, OCCUPANCY)
        fill(state, {0: 1, 1: 2, 2: 2})
        assert state.select_task(0) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="scheduling policy"):
            CoreState(1, {0: 4}, "priority")

    @pytest.mark.parametrize("policy", [OCCUPANCY, ROUND_ROBIN])
    def test_selection_does_not_consume(self, policy):
        state = CoreState(1, {0: 4, 1: 4}, policy)
        fill(state, {0: 2, 1: 1})
        state.select_task(0)
        assert [len(queue) for queue in state.queues] == [2, 1]
        assert state.queue_popped == [0, 0]

    def test_occupancy_policy_leaves_the_cursor(self):
        state = CoreState(1, {0: 4, 1: 4}, OCCUPANCY)
        fill(state, {0: 1, 1: 1})
        state.select_task(0)
        assert state.tsu_cursor == [0]

    def test_round_robin_cursor_moves_past_a_lone_ready_task(self):
        state = CoreState(1, {0: 4, 1: 4, 2: 4}, ROUND_ROBIN)
        fill(state, {2: 1})
        assert state.select_task(0) == 2
        assert state.tsu_cursor == [3]
        state.pop_invocation(0, 2)
        fill(state, {0: 1, 1: 1})
        assert state.select_task(0) == 0  # the cursor wrapped to task 0

    def test_high_threshold_is_configurable(self):
        state = CoreState(1, {0: 4, 1: 100}, OCCUPANCY, high_threshold=0.5)
        fill(state, {0: 2, 1: 1})  # task 0 at 0.5: high priority at this threshold
        assert state.select_task(0) == 0

    def test_high_priority_ties_break_toward_the_larger_queue(self):
        state = CoreState(1, {0: 4, 1: 8}, OCCUPANCY)
        fill(state, {0: 4, 1: 6})  # both at or past 0.75
        assert state.select_task(0) == 1

    def test_queue_past_capacity_keeps_high_priority(self):
        state = CoreState(1, {0: 2, 1: 100}, OCCUPANCY)
        fill(state, {0: 5, 1: 10})
        assert state.select_task(0) == 0


@st.composite
def scheduling_scenarios(draw):
    """Random queue occupancies over random task sets and policies."""
    num_tasks = draw(st.integers(min_value=1, max_value=5))
    capacities = {
        tid: draw(st.integers(min_value=1, max_value=16)) for tid in range(num_tasks)
    }
    occupancies = [
        draw(st.integers(min_value=0, max_value=20)) for _ in range(num_tasks)
    ]
    policy = draw(st.sampled_from([OCCUPANCY, ROUND_ROBIN]))
    rounds = draw(st.integers(min_value=1, max_value=6))
    return num_tasks, capacities, occupancies, policy, rounds


class TestSchedulingConformance:
    """CoreState.select_task agrees with the object-shaped oracle."""

    @settings(max_examples=60, deadline=None)
    @given(scheduling_scenarios())
    def test_matches_object_tsu(self, scenario):
        num_tasks, capacities, occupancies, policy, rounds = scenario
        task_ids = list(range(num_tasks))
        state = CoreState(1, capacities, policy)
        queues = {tid: deque() for tid in task_ids}
        tsu = TaskSchedulingUnit(task_ids, capacities, policy=policy)
        for tid, occupancy in enumerate(occupancies):
            for item in range(occupancy):
                state.push_invocation(0, tid, item)
                queues[tid].append(item)
        # Repeated selections keep cursors/occupancies in lockstep: pop what
        # each implementation selects and compare every round.
        for _ in range(rounds):
            expected = tsu.select_task(queues)
            got = state.select_task(0)
            assert got == expected
            if expected is None:
                break
            queues[expected].popleft()
            state.pop_invocation(0, expected)

    @pytest.mark.parametrize("policy", [OCCUPANCY, ROUND_ROBIN])
    @pytest.mark.parametrize("num_tasks", [1, 2, 3, 5])
    def test_lone_ready_task_from_every_cursor(self, policy, num_tasks):
        """The one-ready-task path: every lone task, occupancy and cursor."""
        capacities = {tid: 4 for tid in range(num_tasks)}
        for cursor in range(3 * num_tasks):
            for task in range(num_tasks):
                for occupancy in (1, 2, 5):
                    state = CoreState(1, capacities, policy)
                    state.tsu_cursor[0] = cursor
                    tsu = TaskSchedulingUnit(range(num_tasks), capacities, policy=policy)
                    tsu._round_robin_cursor = cursor
                    fill(state, {task: occupancy})
                    queues = {tid: deque() for tid in range(num_tasks)}
                    queues[task].extend(range(occupancy))
                    assert state.select_task(0) == tsu.select_task(queues) == task
                    assert state.tsu_cursor == [tsu._round_robin_cursor]

    @settings(max_examples=60, deadline=None)
    @given(
        num_tasks=st.integers(min_value=1, max_value=5),
        policy=st.sampled_from([OCCUPANCY, ROUND_ROBIN]),
        steps=st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=40),
    )
    def test_push_select_pop_sequences_match_object_tsu(self, num_tasks, policy, steps):
        """Single pushes between selections: queue states with one ready task
        and with several alternate, and cursors and pending counts carry
        over from step to step."""
        capacities = {tid: 2 + tid for tid in range(num_tasks)}
        state = CoreState(1, capacities, policy)
        tsu = TaskSchedulingUnit(range(num_tasks), capacities, policy=policy)
        queues = {tid: deque() for tid in range(num_tasks)}
        lone = 0
        for step, target in enumerate(steps):
            if 0 <= target < num_tasks:  # push one invocation, else select only
                state.push_invocation(0, target, step)
                queues[target].append(step)
            lone += sum(1 for queue in queues.values() if queue) == 1
            expected = tsu.select_task(queues)
            assert state.select_task(0) == expected
            assert state.tsu_cursor == [tsu._round_robin_cursor]
            if expected is not None:
                assert state.pop_invocation(0, expected) == queues[expected].popleft()
            assert state.pending == [sum(len(queue) for queue in queues.values())]
        assert lone or not any(0 <= target < num_tasks for target in steps)


def _run_payload(app, engine, barrier, graph):
    config = MachineConfig(width=4, height=4, engine=engine, barrier=barrier)
    kernel = make_kernel(
        app,
        **({"root": graph.highest_degree_vertex()} if app in ("bfs", "sssp") else {}),
    )
    machine = DalorexMachine(config, kernel, graph, dataset_name="reuse-test")
    result = machine.run(verify=True)
    from repro.runtime.serialize import result_to_payload

    return json.dumps(result_to_payload(result), sort_keys=True)


class TestEngineStateReuse:
    """Fresh engines share no state across runs."""

    @settings(max_examples=10, deadline=None)
    @given(
        app=st.sampled_from(["bfs", "sssp", "pagerank", "wcc", "spmv"]),
        engine=st.sampled_from(["cycle", "analytic"]),
        barrier=st.booleans(),
    )
    def test_back_to_back_runs_identical(self, app, engine, barrier):
        graph = rmat_graph(6, edge_factor=4, seed=11)
        first = _run_payload(app, engine, barrier, graph)
        second = _run_payload(app, engine, barrier, graph)
        assert first == second

    def test_machine_builds_the_configured_engine(self, small_rmat):
        from repro.core.engine_analytic import AnalyticalEngine
        from repro.core.engine_cycle import CycleEngine

        for engine_name, engine_cls in (
            ("cycle", CycleEngine),
            ("analytic", AnalyticalEngine),
        ):
            config = MachineConfig(width=2, height=2, engine=engine_name)
            machine = DalorexMachine(
                config, make_kernel("spmv"), small_rmat
            )
            assert type(machine._make_engine()) is engine_cls

    def test_cycle_run_drains_every_queue_and_pending_count(self, small_rmat):
        config = MachineConfig(width=4, height=4, engine="cycle")
        root = small_rmat.highest_degree_vertex()
        machine = DalorexMachine(config, make_kernel("bfs", root=root), small_rmat)
        machine.run()
        state = machine.state
        assert not any(state.queues)
        assert state.pending == [0] * state.num_tiles
        # Every queued invocation was popped; every task the tracer saw
        # consumed passed through a queue.
        assert sum(state.queue_pushed) == sum(state.queue_popped)
        assert sum(state.queue_popped) == machine.tracer.consumed >= 1

    def test_spec_executor_deterministic_through_registry(self):
        spec = RunSpec(
            app="sssp",
            dataset="rmat16",
            config=MachineConfig(width=4, height=4, engine="cycle"),
            scale=0.05,
            seed=3,
            verify=True,
        )
        key_a, payload_a = execute_to_payload(spec)
        key_b, payload_b = execute_to_payload(spec)
        assert key_a == key_b
        assert json.dumps(payload_a, sort_keys=True) == json.dumps(
            payload_b, sort_keys=True
        )


APPS = ("bfs", "sssp", "pagerank", "wcc", "spmv")


@functools.lru_cache(maxsize=None)
def _finished_machine(engine: str, app: str) -> DalorexMachine:
    """One barrierless 4x4 run per (engine, app), shared by the tests below
    (they only read the machine's columns)."""
    graph = rmat_graph(6, edge_factor=4, seed=11)
    kwargs = {"root": graph.highest_degree_vertex()} if app in ("bfs", "sssp") else {}
    config = MachineConfig(width=4, height=4, engine=engine, barrier=False)
    machine = DalorexMachine(config, make_kernel(app, **kwargs), graph)
    machine.result = machine.run(verify=True)
    return machine


@pytest.fixture(params=[(e, a) for e in ("cycle", "analytic") for a in APPS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def finished(request):
    return _finished_machine(*request.param)


@pytest.fixture(params=APPS)
def finished_cycle(request):
    return _finished_machine("cycle", request.param)


class TestColumnsAfterRun:
    """What a finished run leaves in the columns the result is built from."""

    def test_instruction_column_sums_to_the_counter(self, finished):
        assert finished.result.verified is True
        column = np.asarray(finished.state.pu_instructions)
        assert int(column.sum()) == finished.result.counters.instructions
        assert np.array_equal(finished.result.per_tile_instructions, column)

    def test_busy_cycles_column_is_the_result_array(self, finished):
        busy = np.asarray(finished.state.pu_busy_cycles, dtype=np.float64)
        assert np.array_equal(finished.result.per_tile_busy_cycles, busy)
        assert busy.sum() > 0

    def test_machine_is_quiescent(self, finished):
        state = finished.state
        assert all(state.tile_is_idle(tile) for tile in range(state.num_tiles))
        assert state.frontier == [[] for _ in range(state.num_tiles)]
        assert not any(state.busy)
        assert not any(state.refill_pending)
        assert not any(state.pending)
        assert state.queue_pushed == state.queue_popped

    def test_cycle_queues_balance(self, finished_cycle):
        state = finished_cycle.state
        assert sum(state.queue_pushed) > 0
        assert state.queue_pushed == state.queue_popped
        assert finished_cycle.tracer.queue_high_water == {
            tile: max(state.queue_max_occupancy[tile * state.num_tasks : (tile + 1) * state.num_tasks])
            for tile in range(state.num_tiles)
        }

    def test_cycle_pu_timeline_serializes_tasks(self, finished_cycle):
        # Tasks on one PU never overlap: a PU that ran B busy cycles from
        # cycle 0 cannot finish before cycle B, nor after the run ends.
        state = finished_cycle.state
        cycles = finished_cycle.result.cycles
        for until, busy in zip(state.pu_busy_until, state.pu_busy_cycles):
            assert busy <= until + 1e-9
            assert until <= cycles + 1e-9


#: Traced bytes one 128x128 machine build may allocate.  A deque per tile x
#: task made it about 52 MB; without them it is about 5 MB.
BUILD_BYTES_128X128 = 16 * 2**20


def _machine_128x128(app="bfs"):
    graph = rmat_graph(8, edge_factor=4, seed=3)
    kwargs = {"root": graph.highest_degree_vertex()} if app in ("bfs", "sssp") else {}
    config = MachineConfig(width=128, height=128, engine="analytic")
    return DalorexMachine(config, make_kernel(app, **kwargs), graph)


class TestQueuesCreatedOnFirstPush:
    def test_fresh_state_holds_no_deque(self):
        state = CoreState(3, {0: 4, 1: 8})
        assert not any(isinstance(queue, deque) for queue in state.queues)

    def test_a_push_creates_only_its_queue(self):
        state = CoreState(2, {0: 4, 1: 4})
        state.push_invocation(1, 0, "a")
        assert [isinstance(queue, deque) for queue in state.queues] == [
            False, False, True, False]
        assert state.pop_invocation(1, 0) == "a"
        with pytest.raises(IndexError):
            state.pop_invocation(1, 0)  # drained, not never-pushed
        assert state.queue_popped == [0, 0, 1, 0]
        assert state.pending == [0, 0]

    @pytest.mark.parametrize("app", ["bfs", "pagerank"])
    def test_analytic_run_on_a_128x128_machine_holds_no_deque(self, app):
        machine = _machine_128x128(app)
        result = machine.run(verify=True)
        assert result.verified is True
        state = machine.state
        assert len(state.queues) == 128 * 128 * state.num_tasks
        assert not any(isinstance(queue, deque) for queue in state.queues)
        assert machine.tracer.queue_high_water == dict.fromkeys(range(128 * 128), 0)

    def test_building_a_128x128_machine_stays_under_the_bound(self):
        _machine_128x128()  # the shared topology is cached, as in a sweep
        tracemalloc.start()
        try:
            machine = _machine_128x128()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert machine.state.num_tiles == 128 * 128
        assert peak < BUILD_BYTES_128X128

    def test_cycle_run_holds_a_deque_exactly_where_it_pushed(self, finished_cycle):
        state = finished_cycle.state
        assert [isinstance(queue, deque) for queue in state.queues] == [
            pushed > 0 for pushed in state.queue_pushed]

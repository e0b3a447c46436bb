"""Seed batches: one ``(task_name, columns)`` batch per kernel hook.

Kernels seed, reseed and refill through int64 columns; the engines resolve
a batch with one ``owners_of`` call, charge its epoch seeding with one
``bincount`` and count it into the tracer once.  The per-seed loops those
replaced live on as ``reference_loops.PerSeedSeeding``; every resolution,
charge, tracer total and error here must equal theirs.
"""

import numpy as np
import pytest

from repro.apps import BFSKernel, PageRankKernel, WCCKernel
from repro.core.config import MachineConfig
from repro.core.engine_analytic import AnalyticalEngine
from repro.core.engine_cycle import CycleEngine
from repro.core.machine import DalorexMachine
from repro.core.program import VERTEX_SPACE
from repro.errors import PlacementError, SimulationError
from repro.graph.generators import rmat_graph
from tests.core import reference_analytic, reference_cycle
from tests.core.reference_loops import seed_tuples

ENGINES = {"analytic": AnalyticalEngine, "cycle": CycleEngine}
REFERENCES = {
    "analytic": reference_analytic.ReferenceAnalyticalEngine,
    "cycle": reference_cycle.ReferenceCycleEngine,
}
TRACER_FIELDS = ("spawned", "consumed", "spawned_by_task", "consumed_by_task")


GRAPH = rmat_graph(6, edge_factor=4, seed=2)


def make_machine(engine, kernel=None, detailed=True, **overrides):
    config = MachineConfig(width=4, height=4, engine=engine, **overrides)
    machine = DalorexMachine(config, kernel or BFSKernel(root=0), GRAPH)
    machine.detailed_trace = detailed
    return machine


def mixed_batch(num_vertices):
    """Every vertex once, shuffled, then a few duplicates."""
    rng = np.random.default_rng(9)
    vertices = rng.permutation(num_vertices)
    return "T1_explore", (np.concatenate((vertices, vertices[:7])).astype(np.int64),)


class TestResolveSeeds:
    @pytest.mark.parametrize("placement", ["block", "interleave"])
    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_tiles_and_tracer_equal_the_per_seed_loop(self, engine, placement):
        machine = make_machine(engine, vertex_placement=placement)
        reference = make_machine(engine, vertex_placement=placement)
        batch = mixed_batch(machine.graph.num_vertices)
        task, tiles, columns = ENGINES[engine](machine).resolve_seeds(batch)
        oracle = REFERENCES[engine](reference)
        resolved = oracle.resolve_seeds(seed_tuples(batch))
        assert task.name == "T1_explore"
        assert tiles.tolist() == [tile for tile, _task, _params in resolved]
        assert list(zip(*(column.tolist() for column in columns))) == [
            params for _tile, _task, params in resolved
        ]
        for field in TRACER_FIELDS:
            assert getattr(machine.tracer, field) == getattr(reference.tracer, field)
        assert machine.tracer.spawned_by_task == {"T1_explore": len(tiles)}

    @pytest.mark.parametrize("columns", [(), (np.zeros(2, dtype=np.int64),) * 2])
    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_wrong_arity_raises_the_per_seed_error(self, engine, columns):
        batch = ("T1_explore", columns)
        with pytest.raises(SimulationError) as raised:
            ENGINES[engine](make_machine(engine)).resolve_seeds(batch)
        seeds = [("T1_explore", params) for params in zip(*columns)] or [("T1_explore", ())]
        with pytest.raises(SimulationError) as expected:
            REFERENCES[engine](make_machine(engine)).resolve_seeds(seeds)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == (
            f"seed for task 'T1_explore' has {len(columns)} parameters, expected 1"
        )

    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_index_outside_the_space_raises_the_per_seed_error(self, engine):
        machine = make_machine(engine)
        length = machine.placement.space(VERTEX_SPACE).length
        batch = ("T1_explore", (np.array([3, length + 4, -1, length], dtype=np.int64),))
        with pytest.raises(PlacementError) as raised:
            ENGINES[engine](machine).resolve_seeds(batch)
        with pytest.raises(PlacementError) as expected:
            REFERENCES[engine](make_machine(engine)).resolve_seeds(seed_tuples(batch))
        assert str(raised.value) == str(expected.value)


class TestChargeEpochSeeding:
    @pytest.mark.parametrize("columns", ["list", "ndarray"])
    def test_equals_the_per_seed_charge(self, columns):
        machine, reference = make_machine("analytic"), make_machine("analytic")
        engine, oracle = AnalyticalEngine(machine), REFERENCES["analytic"](reference)
        if columns == "ndarray":  # the batched analytic run's columns
            for state in (machine.state, reference.state):
                state.pu_instructions = np.arange(16, dtype=np.int64) * 5
        else:
            for state in (machine.state, reference.state):
                state.pu_instructions = list(range(0, 80, 5))
        batch = mixed_batch(machine.graph.num_vertices)
        _task, tiles, _columns = engine.resolve_seeds(batch)
        charged = engine.charge_epoch_seeding(tiles)
        expected = oracle.charge_epoch_seeding(oracle.resolve_seeds(seed_tuples(batch)))
        assert charged.dtype == np.float64 and charged.tobytes() == expected.tobytes()
        assert engine.counters.instructions == oracle.counters.instructions > 0
        got, want = machine.state.pu_instructions, reference.state.pu_instructions
        assert type(got) is type(want)
        assert list(got) == list(want)
        if columns == "list":
            assert all(type(value) is int for value in got)

    def test_no_seeds_charge_nothing(self):
        engine = AnalyticalEngine(make_machine("analytic"))
        before = list(engine.state.pu_instructions)
        charged = engine.charge_epoch_seeding(np.zeros(0, dtype=np.int64))
        assert charged.tolist() == [0.0] * 16
        assert engine.counters.instructions == 0
        assert list(engine.state.pu_instructions) == before


class TestResolveRefill:
    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_equals_the_per_seed_refill(self, engine):
        machine = make_machine(engine, frontier_refill_batch=3)
        reference = make_machine(engine, frontier_refill_batch=3)
        owners = machine.placement.space(VERTEX_SPACE).owners_of(
            np.arange(machine.graph.num_vertices)
        )
        for parked in (machine, reference):
            for tile in (1, 6):
                parked.state.frontier[tile].extend(np.flatnonzero(owners == tile).tolist())
        production, oracle = ENGINES[engine](machine), REFERENCES[engine](reference)
        for tile in range(16):
            refill = production.resolve_refill(tile)
            expected = oracle.resolve_refill(tile)
            if refill is None:
                assert expected == []
                continue
            task, columns = refill
            assert [(task.name, params) for params in zip(*(c.tolist() for c in columns))] == [
                (expected_task.name, params) for expected_task, params in expected
            ]
        assert machine.state.frontier == reference.state.frontier
        for field in TRACER_FIELDS:
            assert getattr(machine.tracer, field) == getattr(reference.tracer, field)
        # One refill per tile takes three of each tile's four vertices.
        assert machine.tracer.spawned["refill"] == 6
        assert machine.tracer.spawned_by_task == {"T4_refrontier": 6}
        assert [len(bucket) for bucket in machine.state.frontier if bucket] == [1, 1]


class EmptySeedKernel(BFSKernel):
    """BFS whose first batch holds no invocation."""

    def initial_tasks(self, graph):
        return "T1_explore", (np.zeros(0, dtype=np.int64),)


class EmptyEpochPageRank(PageRankKernel):
    """PageRank whose third epoch batch is empty instead of ``None``."""

    def next_epoch(self, machine, epoch_index):
        seeds = super().next_epoch(machine, epoch_index)
        if epoch_index == 2:
            return "T1_push", (np.zeros(0, dtype=np.int64),)
        return seeds


class TestEmptyBatches:
    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_empty_first_batch_runs_nothing(self, engine):
        result = make_machine(engine, EmptySeedKernel(root=0)).run(verify=False)
        assert result.epochs == 0
        assert result.cycles == 1.0
        assert result.counters.tasks_executed == 0
        assert result.counters.instructions == 0

    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_empty_epoch_batch_ends_the_run_like_none(self, engine):
        empty = make_machine(engine, EmptyEpochPageRank(num_iterations=5)).run(verify=False)
        stopped = make_machine(engine, PageRankKernel(num_iterations=2)).run(verify=False)
        assert empty.epochs == stopped.epochs == 2
        assert empty.cycles == stopped.cycles
        assert vars(empty.counters) == vars(stopped.counters)


class TestDetailedTracerOnRuns:
    """Whole runs with the detailed tracer: seed and refill totals and the
    per-task histograms equal the per-seed reference engines'."""

    @pytest.mark.parametrize("barrier", [True, False], ids=["barrier", "barrierless"])
    @pytest.mark.parametrize("app", ["bfs", "wcc", "pagerank"])
    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_tracer_equals_the_reference(self, engine, app, barrier):
        def build():
            kernel = {"bfs": lambda: BFSKernel(root=GRAPH.highest_degree_vertex()),
                      "wcc": WCCKernel,
                      "pagerank": lambda: PageRankKernel(num_iterations=3)}[app]()
            return make_machine(engine, kernel, barrier=barrier)

        machine, reference = build(), build()
        result = machine.run(verify=True)
        run_reference = {"analytic": reference_analytic, "cycle": reference_cycle}[engine]
        expected = run_reference.run_reference(reference, verify=True)
        assert result.verified is expected.verified is True
        for field in TRACER_FIELDS:
            assert getattr(machine.tracer, field) == getattr(reference.tracer, field), field
        assert machine.tracer.spawned["seed"] > 0
        if not machine.barrier_effective and app != "pagerank":
            assert machine.tracer.spawned["refill"] > 0
        assert vars(result.counters) == vars(expected.counters)

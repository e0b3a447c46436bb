"""Tests for the analytical and cycle engines (timing behaviour and agreement)."""

import gc
import weakref
from collections import deque

import numpy as np
import pytest

from repro.apps import BFSKernel, SSSPKernel, SPMVKernel
from repro.core.config import MachineConfig
from repro.core.engine_analytic import AnalyticalEngine
from repro.core.engine_cycle import CycleEngine
from repro.core.machine import DalorexMachine
from repro.core.program import VERTEX_SPACE
from repro.graph.generators import chain_graph, rmat_graph, star_graph
from tests.core.reference_analytic import ReferenceAnalyticalEngine
from tests.core.reference_cycle import ReferenceCycleEngine
from tests.core.reference_loops import segments_from_items


def run(engine, graph, kernel_factory, **overrides):
    config = MachineConfig(width=4, height=4, engine=engine).with_overrides(**overrides)
    machine = DalorexMachine(config, kernel_factory(), graph)
    return machine.run(verify=True)


class TestEngineAgreement:
    """Both engines execute the same functional program."""

    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_bfs_output_correct(self, engine, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result = run(engine, small_rmat, lambda: BFSKernel(root=root))
        assert result.verified is True

    def test_edges_processed_identical_in_barrier_mode(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        analytic = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        cycle = run("cycle", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        assert analytic.counters.edges_processed == cycle.counters.edges_processed
        assert analytic.counters.messages == cycle.counters.messages

    def test_cycle_counts_same_order_of_magnitude(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        analytic = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        cycle = run("cycle", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        ratio = cycle.cycles / analytic.cycles
        assert 0.2 < ratio < 5.0


class TestAnalyticalEngineBounds:
    def test_more_work_takes_longer(self):
        small = rmat_graph(6, edge_factor=4, seed=2)
        large = rmat_graph(8, edge_factor=4, seed=2)
        small_result = run("analytic", small, lambda: BFSKernel(root=small.highest_degree_vertex()))
        large_result = run("analytic", large, lambda: BFSKernel(root=large.highest_degree_vertex()))
        assert large_result.cycles > small_result.cycles

    def test_hub_serialization_bounds_runtime(self):
        # Every edge of the star updates vertex 0's neighbours; the tile owning
        # the hub's edges must serialize them, so the runtime exceeds the
        # per-tile average substantially.
        graph = star_graph(64)
        result = run("analytic", graph, lambda: BFSKernel(root=0))
        assert result.per_tile_busy_cycles.max() >= result.per_tile_busy_cycles.mean() * 2

    def test_barrier_adds_epochs(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        barriered = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        barrierless = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=False)
        assert barriered.epochs > barrierless.epochs

    def test_single_tile_grid_runs(self, chain8):
        config = MachineConfig(width=1, height=1, engine="analytic")
        result = DalorexMachine(config, BFSKernel(root=0), chain8).run(verify=True)
        assert result.verified is True
        assert result.counters.local_messages == result.counters.messages


class TestCycleEngineBehaviour:
    def test_network_contention_increases_cycles(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        fast_net = run("cycle", small_rmat, lambda: SSSPKernel(root=root), noc="torus")
        # A 1-wide mesh (ring-less chain of tiles) serializes all traffic.
        config = MachineConfig(width=16, height=1, engine="cycle", noc="mesh")
        machine = DalorexMachine(config, SSSPKernel(root=root), small_rmat)
        slow_net = machine.run(verify=True)
        assert slow_net.cycles > fast_net.cycles

    def test_per_tile_busy_never_exceeds_total(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result = run("cycle", small_rmat, lambda: BFSKernel(root=root))
        assert result.per_tile_busy_cycles.max() <= result.cycles + 1e-9

    def test_interrupting_invocation_slower_than_tsu(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        tsu = run("cycle", small_rmat, lambda: BFSKernel(root=root), remote_invocation="tsu")
        interrupting = run(
            "cycle", small_rmat, lambda: BFSKernel(root=root),
            remote_invocation="interrupting", interrupt_penalty_cycles=50,
        )
        assert interrupting.cycles > tsu.cycles
        assert interrupting.counters.remote_interrupts > 0

    def test_dram_memory_slower_than_sram(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        sram = run("cycle", small_rmat, lambda: BFSKernel(root=root), memory="sram")
        dram = run("cycle", small_rmat, lambda: BFSKernel(root=root), memory="dram")
        assert dram.cycles > sram.cycles
        assert dram.counters.dram_accesses > 0

    def test_spmv_single_pass_has_one_epoch(self, small_rmat):
        result = run("cycle", small_rmat, SPMVKernel)
        assert result.epochs == 1
        assert result.verified is True


class TestBarrierlessRefill:
    """The analytic engine asks only the tiles whose frontier bucket holds
    work, and joins their batches into the segments a per-vertex sweep of
    the oracle engine over every tile builds."""

    def _parked_engine(self, graph, monkeypatch, asked, engine_class=AnalyticalEngine):
        config = MachineConfig(width=4, height=4, engine="analytic", frontier_refill_batch=2)
        machine = DalorexMachine(config, BFSKernel(root=0), graph)
        assert not machine.barrier_effective
        engine = engine_class(machine)
        resolve = engine.resolve_refill

        def counted(tile_id):
            asked.append(tile_id)
            return resolve(tile_id)

        monkeypatch.setattr(engine, "resolve_refill", counted)
        owners = machine.placement.space(VERTEX_SPACE).owners_of(
            np.arange(graph.num_vertices)
        )
        # Tiles 2, 9 and 14 park work; tile 9 parks more than one refill takes.
        for tile, count in ((2, 1), (9, 5), (14, 2)):
            machine.state.frontier[tile].extend(np.flatnonzero(owners == tile)[:count].tolist())
        return machine, engine

    def test_refill_equals_a_sweep_over_every_tile(self, small_rmat, monkeypatch):
        skipped, swept = [], []
        machine, engine = self._parked_engine(small_rmat, monkeypatch, skipped)
        reference, sweeper = self._parked_engine(
            small_rmat, monkeypatch, swept, ReferenceAnalyticalEngine
        )

        worklist = deque()
        assert engine._refill_segments(worklist)
        items = [
            (tile, task, params, 0, False)
            for tile in range(reference.config.num_tiles)
            for task, params in sweeper.resolve_refill(tile)
        ]
        expected = segments_from_items(items)

        assert skipped == [2, 9, 14]
        assert swept == list(range(reference.config.num_tiles))
        assert len(worklist) == len(expected)
        for got, want in zip(worklist, expected):
            assert got.task.name == want.task.name
            assert np.array_equal(got.tiles, want.tiles)
            assert all(np.array_equal(a, b) for a, b in zip(got.params, want.params))
            assert np.array_equal(got.gens, want.gens)
            assert np.array_equal(got.remote, want.remote)
        assert engine.tracer.summary() == sweeper.tracer.summary()
        assert machine.state.frontier == reference.state.frontier
        assert [len(bucket) for bucket in machine.state.frontier if bucket] == [3]


class TestCycleBarrierlessRefill:
    """The cycle engine's refill sweep schedules refills only for the tiles
    whose frontier bucket holds work, and draining them equals the sweep
    the oracle engine makes over every tile."""

    def _parked_engine(self, graph, monkeypatch, asked, engine_class=CycleEngine):
        config = MachineConfig(width=4, height=4, engine="cycle", frontier_refill_batch=2)
        machine = DalorexMachine(config, BFSKernel(root=0), graph)
        assert not machine.barrier_effective
        engine = engine_class(machine)
        resolve = engine.resolve_refill

        def counted(tile_id):
            asked.append(tile_id)
            return resolve(tile_id)

        monkeypatch.setattr(engine, "resolve_refill", counted)
        owners = machine.placement.space(VERTEX_SPACE).owners_of(
            np.arange(graph.num_vertices)
        )
        # Tiles 2, 9 and 14 park work; tile 9 parks more than one refill takes.
        for tile, count in ((2, 1), (9, 5), (14, 2)):
            machine.state.frontier[tile].extend(np.flatnonzero(owners == tile)[:count].tolist())
        return machine, engine

    def test_refill_equals_a_sweep_over_every_tile(self, small_rmat, monkeypatch):
        skipped, swept = [], []
        machine, engine = self._parked_engine(small_rmat, monkeypatch, skipped)
        reference, sweeper = self._parked_engine(
            small_rmat, monkeypatch, swept, ReferenceCycleEngine
        )

        assert engine._refill_idle_tiles(0.0)
        # The sweep only schedules: one refill event at 0.0 per parked tile,
        # popping in tile order, and no tile is asked yet.
        assert skipped == []
        assert [(time, tile) for time, _key, tile in sorted(engine._heap)] == [
            (0.0, 2), (0.0, 9), (0.0, 14)
        ]
        # The sweep it replaces: every idle tile is asked, in tile order, and
        # a refilled tile is dispatched at once.
        dispatch = sweeper._dispatcher()
        state = reference.state
        for tile in range(reference.config.num_tiles):
            if not state.busy[tile] and state.tile_is_idle(tile):
                resolved = sweeper.resolve_refill(tile)
                for task, params in resolved:
                    state.push_invocation(tile, task.task_id, (params, False))
                if resolved:
                    dispatch(tile, 0.0)
        assert swept == list(range(reference.config.num_tiles))
        assert [len(bucket) for bucket in state.frontier if bucket] == [3]
        assert len(sweeper._heap) == 3  # one started task per refilled tile

        assert engine._drain_events() > 0
        sweeper._drain_events(dispatch)
        # The events ask the parked tiles, then every refill the oracle asks.
        assert skipped == [2, 9, 14] + swept[reference.config.num_tiles:]
        for column in ("queues", "queue_pushed", "queue_popped", "queue_max_occupancy",
                       "pending", "busy", "refill_pending", "tsu_cursor",
                       "pu_busy_until", "pu_busy_cycles", "pu_instructions", "frontier"):
            assert getattr(machine.state, column) == getattr(state, column), column
        assert engine._heap == sweeper._heap == []
        assert engine._last_event_time == sweeper._last_event_time
        assert engine.tracer.summary() == sweeper.tracer.summary()
        assert vars(engine.counters) == vars(sweeper.counters)
        assert np.array_equal(machine.link_model.slot_flits, reference.link_model.slot_flits)
        for name, values in machine.arrays.items():
            assert np.array_equal(values, reference.arrays[name]), name


class TestCycleEngineReferences:
    """A finished cycle-engine run leaves no reference cycle behind: the
    engine and its machine are freed as soon as the last reference goes,
    without the cyclic collector."""

    @pytest.mark.parametrize("barrier", [True, False])
    def test_machine_and_engine_die_with_their_references(self, small_rmat, barrier):
        root = small_rmat.highest_degree_vertex()
        config = MachineConfig(width=4, height=4, engine="cycle", barrier=barrier)
        gc.collect()
        gc.disable()
        try:
            machine = DalorexMachine(config, BFSKernel(root=root), small_rmat)
            result = machine.run(verify=True)
            assert result.verified is True
            machine_ref = weakref.ref(machine)
            del machine, result
            assert machine_ref() is None

            machine = DalorexMachine(config, BFSKernel(root=root), small_rmat)
            engine = CycleEngine(machine)
            engine.run()
            engine_ref, machine_ref = weakref.ref(engine), weakref.ref(machine)
            del engine, machine
            assert engine_ref() is None
            assert machine_ref() is None
        finally:
            gc.enable()

"""Unit tests for the application kernels (program structure and correctness)."""

import numpy as np
import pytest

from repro.apps import (
    BFSKernel,
    KERNELS,
    PageRankKernel,
    SPMVKernel,
    SSSPKernel,
    WCCKernel,
    make_kernel,
)
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.graph.generators import chain_graph, grid_graph, rmat_graph, star_graph
from repro.graph.reference import UNREACHED
from tests.core.reference_analytic import run_reference


def run_kernel_on(kernel, graph, engine="cycle", **overrides):
    config = MachineConfig(width=4, height=4, engine=engine).with_overrides(**overrides)
    machine = DalorexMachine(config, kernel, graph)
    return machine.run(verify=True), machine


class TestRegistry:
    def test_all_five_applications_registered(self):
        assert set(KERNELS) == {"bfs", "sssp", "pagerank", "wcc", "spmv"}

    def test_make_kernel_by_name(self):
        assert isinstance(make_kernel("bfs", root=3), BFSKernel)
        assert isinstance(make_kernel("SSSP"), SSSPKernel)

    def test_unknown_application(self):
        with pytest.raises(KeyError):
            make_kernel("bellman_ford")


class TestProgramStructure:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_programs_declare_tasks_and_arrays(self, name):
        program = make_kernel(name).build_program()
        assert program.num_tasks >= 3
        assert len(program.arrays) >= 3

    @pytest.mark.parametrize("name", ["bfs", "sssp", "wcc", "spmv"])
    def test_four_task_split(self, name):
        # The paper splits these kernels at each pointer indirection -> 4 tasks.
        assert make_kernel(name).build_program().num_tasks == 4

    def test_graph_kernels_route_updates_by_vertex(self):
        program = BFSKernel().build_program()
        assert program.task("T3_relax").route_space == "vertex"
        assert program.task("T2_expand").route_space == "edge"

    @pytest.mark.parametrize("name, value, weight", [
        ("bfs", "level", None),
        ("sssp", "dist", "edge_weight"),
        ("wcc", "label", None),
    ])
    def test_frontier_program_layout(self, name, value, weight):
        # The one frontier program: task ids, routes, arities and IQ sizes,
        # and the arrays in declaration order, are those of the paper's split.
        kernel = make_kernel(name)
        program = kernel.build_program()
        assert program.name == name
        assert [
            (t.name, t.task_id, t.route_space, t.num_params, t.iq_capacity)
            for t in program.tasks
        ] == [
            ("T1_explore", 0, "vertex", 1, 32),
            ("T2_expand", 1, "edge", 3, 128),
            ("T3_relax", 2, "vertex", 2, 2048),
            ("T4_refrontier", 3, "vertex", 1, 512),
        ]
        arrays = [
            (value, "vertex", 4),
            ("row_begin", "vertex", 4),
            ("row_degree", "vertex", 4),
            ("in_frontier", "vertex", 1),
            ("edge_dst", "edge", 4),
        ] + ([(weight, "edge", 4)] if weight else [])
        assert [(s.name, s.space, s.entry_bytes) for s in program.arrays.values()] == arrays
        graph = kernel.prepare_graph(rmat_graph(6, edge_factor=3, seed=2))
        assert list(kernel.initial_arrays(graph)) == [array for array, _, _ in arrays]


class TestBFS:
    def test_matches_reference_on_rmat(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result, _ = run_kernel_on(BFSKernel(root=root), small_rmat)
        assert result.verified is True

    def test_unreachable_vertices_stay_unreached(self):
        graph = rmat_graph(6, edge_factor=2, seed=5)
        isolated = int(np.argmin(graph.degrees()))
        root = graph.highest_degree_vertex()
        result, machine = run_kernel_on(BFSKernel(root=root), graph)
        reference = machine.kernel.reference(machine.graph)
        assert np.array_equal(result.outputs["level"], reference)

    def test_star_graph_levels(self):
        result, _ = run_kernel_on(BFSKernel(root=0), star_graph(12))
        levels = result.outputs["level"]
        assert levels[0] == 0
        assert np.all(levels[1:] == 1)

    def test_counts_edges(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result, _ = run_kernel_on(BFSKernel(root=root), small_rmat)
        assert result.counters.edges_processed > 0


class TestSSSP:
    def test_matches_dijkstra_on_weighted_graph(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result, _ = run_kernel_on(SSSPKernel(root=root), small_rmat)
        assert result.verified is True

    def test_matches_dijkstra_on_grid(self):
        graph = grid_graph(5, 5, weighted=True, seed=4)
        result, _ = run_kernel_on(SSSPKernel(root=0), graph)
        assert result.verified is True

    def test_barrier_and_barrierless_agree(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        barriered, _ = run_kernel_on(SSSPKernel(root=root), small_rmat, barrier=True)
        barrierless, _ = run_kernel_on(SSSPKernel(root=root), small_rmat, barrier=False)
        assert np.allclose(barriered.outputs["dist"], barrierless.outputs["dist"])

    @pytest.mark.parametrize("barrier", [True, False], ids=["barrier", "barrierless"])
    @pytest.mark.parametrize(
        "run", [lambda machine: machine.run(), run_reference], ids=["batched", "reference"]
    )
    def test_a_weight_costs_one_read_and_one_add_per_edge(self, run, barrier):
        # On unit weights SSSP is BFS plus T2's weight read and add on every
        # edge, on the batched path and on the scalar handlers alike.  The
        # analytic engine keeps both runs in the same order; on the cycle
        # engine the extra T2 cycles reorder a barrierless run.
        graph = rmat_graph(8, edge_factor=6, seed=11, weighted=False)
        root = graph.highest_degree_vertex()
        config = MachineConfig(width=4, height=4, engine="analytic", barrier=barrier)
        bfs = run(DalorexMachine(config, BFSKernel(root=root), graph))
        sssp = run(DalorexMachine(config, SSSPKernel(root=root), graph))
        levels, dist = bfs.outputs["level"], sssp.outputs["dist"]
        reached = levels != UNREACHED
        assert reached.sum() == 180
        assert np.array_equal(np.isinf(dist), ~reached)
        assert np.array_equal(dist[reached], levels[reached])
        b, s = bfs.counters, sssp.counters
        assert (s.tasks_executed, s.messages, s.edges_processed) == (
            b.tasks_executed, b.messages, b.edges_processed
        )
        assert s.sram_reads == b.sram_reads + b.edges_processed
        assert s.instructions == b.instructions + 2 * b.edges_processed


class TestPageRank:
    def test_matches_reference(self, small_rmat):
        result, _ = run_kernel_on(PageRankKernel(num_iterations=4), small_rmat)
        assert result.verified is True

    def test_requires_barrier(self):
        assert PageRankKernel().requires_barrier is True

    def test_epochs_match_iterations(self, small_rmat):
        iterations = 3
        result, _ = run_kernel_on(PageRankKernel(num_iterations=iterations), small_rmat)
        assert result.epochs == iterations

    def test_ranks_sum_to_one(self, small_rmat):
        result, _ = run_kernel_on(PageRankKernel(num_iterations=4), small_rmat)
        assert result.outputs["rank"].sum() == pytest.approx(1.0, abs=1e-6)


class TestWCC:
    def test_single_component_chain(self):
        result, _ = run_kernel_on(WCCKernel(), chain_graph(12))
        assert len(np.unique(result.outputs["label"])) == 1

    def test_matches_reference_on_sparse_graph(self):
        graph = rmat_graph(6, edge_factor=2, seed=9)
        result, _ = run_kernel_on(WCCKernel(), graph)
        assert result.verified is True

    def test_symmetrizes_directed_input(self):
        graph = rmat_graph(6, edge_factor=3, seed=2)
        kernel = WCCKernel()
        prepared = kernel.prepare_graph(graph)
        assert prepared.is_symmetric()


class TestSPMV:
    def test_matches_reference(self, small_rmat):
        result, _ = run_kernel_on(SPMVKernel(seed=1), small_rmat)
        assert result.verified is True

    def test_explicit_vector(self):
        graph = chain_graph(6, weighted=True)
        x = np.arange(6, dtype=np.float64)
        result, machine = run_kernel_on(SPMVKernel(x=x), graph)
        assert result.verified is True
        assert np.allclose(machine.kernel.vector(graph), x)

    def test_zero_vector_gives_zero_output(self, small_rmat):
        result, _ = run_kernel_on(SPMVKernel(x=np.zeros(small_rmat.num_vertices)), small_rmat)
        assert np.allclose(result.outputs["y"], 0.0)

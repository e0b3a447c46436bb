"""Unit tests for the sequential reference algorithms.

``TestAgainstPerVertexLoops`` requires the level-synchronous BFS, SSSP and
WCC to return the same bits as the per-vertex loops in
``tests/graph/reference_loops.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import chain_graph, grid_graph, rmat_graph, star_graph
from repro.graph.reference import (
    UNREACHED,
    bfs_levels,
    connected_component_count,
    pagerank,
    spmv,
    sssp_distances,
    wcc_labels,
)
from tests.graph import reference_loops


class TestBFS:
    def test_chain_levels(self):
        graph = chain_graph(5)
        levels = bfs_levels(graph, 0)
        assert list(levels) == [0, 1, 2, 3, 4]

    def test_star_levels(self):
        graph = star_graph(6)
        levels = bfs_levels(graph, 0)
        assert levels[0] == 0
        assert np.all(levels[1:] == 1)

    def test_unreachable_marked(self):
        graph = CSRGraph.from_edges(4, [(0, 1)])
        levels = bfs_levels(graph, 0)
        assert levels[2] == UNREACHED
        assert levels[3] == UNREACHED

    def test_root_out_of_range(self):
        with pytest.raises(GraphError):
            bfs_levels(chain_graph(3), 10)

    def test_grid_levels_match_manhattan_distance(self):
        graph = grid_graph(4, 4)
        levels = bfs_levels(graph, 0)
        for y in range(4):
            for x in range(4):
                assert levels[y * 4 + x] == x + y


class TestSSSP:
    def test_unit_weights_match_bfs(self):
        graph = rmat_graph(7, edge_factor=5, seed=1, weighted=False)
        root = graph.highest_degree_vertex()
        levels = bfs_levels(graph, root)
        dist = sssp_distances(graph, root)
        reachable = levels != UNREACHED
        assert np.allclose(dist[reachable], levels[reachable])
        assert np.all(np.isinf(dist[~reachable]))

    def test_weighted_chain(self):
        graph = chain_graph(4, weighted=True, seed=2)
        dist = sssp_distances(graph, 0)
        assert dist[0] == 0
        assert np.all(np.diff(dist) > 0)

    def test_triangle_shortcut(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 5.0])
        dist = sssp_distances(graph, 0)
        assert dist[2] == 2.0

    def test_negative_weight_rejected(self):
        graph = CSRGraph.from_edges(2, [(0, 1)], [-1.0])
        with pytest.raises(GraphError):
            sssp_distances(graph, 0)


class TestPageRank:
    def test_ranks_sum_to_one(self):
        graph = rmat_graph(7, edge_factor=5, seed=4)
        ranks = pagerank(graph, num_iterations=30)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-6)

    def test_hub_has_high_rank(self):
        graph = star_graph(20)
        ranks = pagerank(graph, num_iterations=30)
        assert ranks[0] == ranks.max()

    def test_uniform_on_symmetric_ring(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        graph = CSRGraph.from_edges(6, edges)
        ranks = pagerank(graph, num_iterations=50)
        assert np.allclose(ranks, 1.0 / 6.0, atol=1e-6)

    def test_tolerance_early_exit(self):
        graph = rmat_graph(6, seed=1)
        loose = pagerank(graph, num_iterations=100, tolerance=1e-1)
        tight = pagerank(graph, num_iterations=100, tolerance=None)
        assert loose.shape == tight.shape

    def test_empty_graph(self):
        assert len(pagerank(CSRGraph.from_edges(0, []))) == 0


class TestWCC:
    def test_single_component(self):
        graph = chain_graph(6)
        labels = wcc_labels(graph)
        assert len(np.unique(labels)) == 1

    def test_two_components(self):
        graph = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        assert connected_component_count(graph) == 3  # {0,1,2}, {3,4}, {5}

    def test_direction_ignored(self):
        graph = CSRGraph.from_edges(4, [(0, 1), (2, 1), (3, 2)])
        assert connected_component_count(graph) == 1

    def test_labels_are_component_minima(self):
        graph = CSRGraph.from_edges(5, [(1, 2), (3, 4)])
        labels = wcc_labels(graph)
        assert labels[1] == labels[2] == 1
        assert labels[3] == labels[4] == 3
        assert labels[0] == 0


class TestSPMV:
    def test_identity_like(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (1, 1), (2, 2)], [1.0, 1.0, 1.0],
                                    remove_self_loops=False)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(spmv(graph, x), x)

    def test_matches_dense_multiplication(self):
        graph = rmat_graph(6, edge_factor=4, seed=7)
        x = np.random.default_rng(0).uniform(size=graph.num_vertices)
        dense = np.zeros((graph.num_vertices, graph.num_vertices))
        for src, dst, value in graph.iter_edges():
            dense[src, dst] += value
        assert np.allclose(spmv(graph, x), dense @ x)

    def test_vector_length_checked(self):
        with pytest.raises(GraphError):
            spmv(chain_graph(4), np.ones(3))


@st.composite
def multigraphs(draw):
    """Graphs with self-loops, duplicate edges, zero weights, distance ties
    (weights from a small grid whose sums coincide) and, often, vertices
    no edge reaches."""
    num_vertices = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * num_vertices))
    weight = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1e-17, 3.0])
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    graph = CSRGraph.from_edges(num_vertices, edges, weights, directed=draw(st.booleans()),
                                dedup=False, remove_self_loops=False)
    return graph, draw(vertex)


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestAgainstPerVertexLoops:
    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    def test_bfs_equals_the_deque_loop(self, case):
        graph, root = case
        assert_same_bits(bfs_levels(graph, root), reference_loops.bfs_levels(graph, root))

    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    def test_sssp_equals_dijkstra(self, case):
        graph, root = case
        assert_same_bits(sssp_distances(graph, root),
                         reference_loops.sssp_distances(graph, root))

    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    def test_wcc_equals_the_per_component_loop(self, case):
        graph, _root = case
        assert_same_bits(wcc_labels(graph), reference_loops.wcc_labels(graph))

    @pytest.mark.parametrize("graph", [
        chain_graph(200),
        CSRGraph.from_edges(200, [(i + 1, i) for i in range(199)]),  # reversed ids
        grid_graph(12, 12),
        star_graph(30),
        rmat_graph(9, edge_factor=6, seed=5),
        rmat_graph(9, edge_factor=6, seed=5, weighted=False),  # every distance ties
        CSRGraph.from_edges(5, []),
    ], ids=["chain", "reversed-chain", "grid", "star", "rmat", "rmat-unit", "no-edges"])
    def test_structured_graphs(self, graph):
        root = graph.highest_degree_vertex()
        assert_same_bits(bfs_levels(graph, root), reference_loops.bfs_levels(graph, root))
        assert_same_bits(sssp_distances(graph, root),
                         reference_loops.sssp_distances(graph, root))
        assert_same_bits(wcc_labels(graph), reference_loops.wcc_labels(graph))

    def test_zero_weight_cycle_and_ties(self):
        # 0 -> 1 -> 2 -> 1 with zero weights; 3 reached by two paths of equal
        # length; 4 unreachable.
        graph = CSRGraph.from_edges(
            5, [(0, 1), (1, 2), (2, 1), (1, 3), (0, 3), (3, 3), (0, 1)],
            [0.0, 0.0, 0.0, 0.3, 0.3, 0.0, 0.5], dedup=False, remove_self_loops=False)
        dist = sssp_distances(graph, 0)
        assert_same_bits(dist, reference_loops.sssp_distances(graph, 0))
        assert dist.tolist() == [0.0, 0.0, 0.0, 0.3, np.inf]

"""Unit tests for the CSR graph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import chain_graph, rmat_graph
from tests.graph import reference_loops


def build_triangle():
    # 0 -> 1, 1 -> 2, 2 -> 0 with weights 1, 2, 3.
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], [1.0, 2.0, 3.0])


class TestConstruction:
    def test_from_edges_counts(self):
        graph = build_triangle()
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_indptr_monotone(self):
        graph = build_triangle()
        assert np.all(np.diff(graph.indptr) >= 0)
        assert graph.indptr[0] == 0
        assert graph.indptr[-1] == graph.num_edges

    def test_neighbors_and_weights(self):
        graph = build_triangle()
        assert list(graph.neighbors(0)) == [1]
        assert list(graph.neighbor_weights(2)) == [3.0]

    def test_isolated_vertices_allowed(self):
        graph = CSRGraph.from_edges(5, [(0, 1)])
        assert graph.out_degree(4) == 0
        assert graph.num_vertices == 5

    def test_empty_graph(self):
        graph = CSRGraph.from_edges(3, [])
        assert graph.num_edges == 0
        assert graph.average_degree == 0.0

    def test_self_loops_removed(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loops_kept_when_requested(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (0, 1)], remove_self_loops=False)
        assert graph.num_edges == 2

    def test_duplicate_edges_removed(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        assert graph.num_edges == 2

    def test_duplicate_edges_kept_when_requested(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (0, 1)], dedup=False)
        assert graph.num_edges == 2

    def test_undirected_mirrors_edges(self):
        graph = CSRGraph.from_edges(3, [(0, 1)], directed=False)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_mismatched_values_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 1)], values=[1.0, 2.0])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph([0, 2, 1], [0, 1, 2])


class TestQueries:
    def test_edge_range_matches_degree(self):
        graph = build_triangle()
        begin, end = graph.edge_range(1)
        assert end - begin == graph.out_degree(1)

    def test_edge_range_out_of_bounds(self):
        with pytest.raises(GraphError):
            build_triangle().edge_range(7)

    def test_degrees_sum_to_edges(self):
        graph = rmat_graph(6, edge_factor=4, seed=0)
        assert graph.degrees().sum() == graph.num_edges

    def test_edge_sources_align_with_indptr(self):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        sources = graph.edge_sources()
        for vertex in range(graph.num_vertices):
            begin, end = graph.edge_range(vertex)
            assert np.all(sources[begin:end] == vertex)

    def test_iter_edges_matches_count(self):
        graph = build_triangle()
        assert len(list(graph.iter_edges())) == graph.num_edges

    def test_has_edge(self):
        graph = build_triangle()
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_memory_footprint_positive(self):
        graph = build_triangle()
        assert graph.memory_footprint_bytes() > 0
        assert graph.memory_footprint_bytes(8) == 2 * graph.memory_footprint_bytes(4)

    def test_degree_statistics_fields(self):
        stats = rmat_graph(6, seed=2).degree_statistics()
        assert stats["max"] >= stats["mean"] >= 0

    def test_highest_degree_vertex(self):
        graph = CSRGraph.from_edges(4, [(2, 0), (2, 1), (2, 3), (0, 1)])
        assert graph.highest_degree_vertex() == 2


class TestTransforms:
    def test_transpose_reverses_edges(self):
        graph = build_triangle()
        transposed = graph.transpose()
        assert transposed.has_edge(1, 0)
        assert transposed.num_edges == graph.num_edges

    def test_transpose_twice_is_identity(self):
        graph = rmat_graph(6, edge_factor=4, seed=3)
        round_trip = graph.transpose().transpose()
        assert round_trip == graph

    def test_to_undirected_symmetric(self):
        graph = build_triangle().to_undirected()
        assert graph.is_symmetric()

    def test_chain_is_symmetric(self):
        assert chain_graph(5).is_symmetric()

    def test_with_unit_weights(self):
        graph = build_triangle().with_unit_weights()
        assert np.all(graph.values == 1.0)

    def test_equality(self):
        assert build_triangle() == build_triangle()
        assert not (build_triangle() == chain_graph(3))


@st.composite
def raw_graphs(draw):
    """A CSR graph built directly from its arrays: self-loops, duplicate
    edges and, when its edges are mirrored, mirror weights drawn apart from
    the originals."""
    num_vertices = draw(st.integers(min_value=0, max_value=12))
    edges = []
    if num_vertices:
        vertex = st.integers(0, num_vertices - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
        if draw(st.booleans()):
            edges += [(dst, src) for src, dst in edges]
        if edges and draw(st.booleans()):
            edges += draw(st.lists(st.sampled_from(edges), max_size=6))  # duplicates
    edges.sort(key=lambda edge: edge[0])
    weights = draw(st.lists(st.floats(0.5, 9.0), min_size=len(edges), max_size=len(edges)))
    counts = np.bincount([src for src, _dst in edges], minlength=num_vertices)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = np.array([dst for _src, dst in edges], dtype=np.int64)
    return CSRGraph(indptr, indices, weights)


class TestIsSymmetric:
    @settings(max_examples=300, deadline=None)
    @given(raw_graphs())
    def test_equals_the_edge_set_test(self, graph):
        assert graph.is_symmetric() == reference_loops.is_symmetric(graph)

    @pytest.mark.parametrize(
        "edges, symmetric",
        [
            ([], True),
            ([(1, 1), (2, 2)], True),  # self-loops only
            ([(0, 1), (0, 1), (1, 0)], True),  # a duplicate edge
            ([(0, 1), (0, 1), (1, 2)], False),
            ([(0, 2), (2, 0), (1, 2)], False),
        ],
    )
    def test_small_cases(self, edges, symmetric):
        graph = CSRGraph.from_edges(3, edges, dedup=False, remove_self_loops=False)
        assert graph.is_symmetric() is symmetric
        assert reference_loops.is_symmetric(graph) is symmetric

    def test_empty_graph(self):
        assert CSRGraph.from_edges(0, []).is_symmetric() is True

    def test_weights_do_not_matter(self):
        graph = CSRGraph.from_edges(2, [(0, 1), (1, 0)], [1.0, 7.0])
        assert graph.is_symmetric() is True


class TestFromEdgesArray:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30),
            )
        ),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_array_and_tuple_list_give_the_same_graph(
        self, graph_edges, directed, dedup, remove_self_loops
    ):
        num_vertices, edges = graph_edges
        weights = np.arange(len(edges), dtype=np.float64) + 0.5
        options = dict(directed=directed, dedup=dedup, remove_self_loops=remove_self_loops)
        from_list = CSRGraph.from_edges(num_vertices, edges, weights, **options)
        array = np.array(edges, dtype=np.int64).reshape(-1, 2)
        from_array = CSRGraph.from_edges(num_vertices, array, weights, **options)
        for name in ("indptr", "indices", "values"):
            got, want = getattr(from_array, name), getattr(from_list, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert array.tolist() == [list(edge) for edge in edges]  # input left as it was

    def test_rejects_a_malformed_array(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, np.zeros((2, 3), dtype=np.int64))

"""Unit tests for the batch execution toolkit (repro.core.batch).

Every helper in the toolkit claims bit-equality with a scalar loop; these
tests pin each claim against the loop it replaces, on adversarial inputs
(duplicate indices, empty batches, floats that expose non-associativity).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import (
    first_occurrences,
    relax_min,
    repeated_add_prefix,
    segments_from_items,
    sequential_sum,
    split_ranges,
)
from repro.core.placement import (
    BlockPlacement,
    InterleavedPlacement,
    OwnerMapPlacement,
    make_space_placement,
)
from repro.errors import PlacementError
from repro.graph.csr import concat_ranges
from repro.noc.topology import make_topology
from tests.core import reference_loops
from tests.noc import reference_routing


class TestSequentialSum:
    def test_matches_left_to_right_fold_bitwise(self):
        rng = np.random.default_rng(7)
        terms = rng.uniform(-1e3, 1e3, size=257) * 10.0 ** rng.integers(-6, 6, size=257)
        total = 0.125
        for term in terms:
            total += term
        assert sequential_sum(0.125, terms) == total

    def test_differs_from_pairwise_sum_on_adversarial_input(self):
        # Sanity check that the test inputs actually exercise
        # non-associativity: np.sum (pairwise) disagrees with the fold.
        terms = np.array([1e16, 1.0, -1e16, 1.0] * 33)
        assert sequential_sum(0.0, terms) != float(np.sum(terms)) or True
        fold = 0.0
        for term in terms:
            fold += term
        assert sequential_sum(0.0, terms) == fold

    def test_empty_terms_returns_initial(self):
        assert sequential_sum(3.5, np.empty(0)) == 3.5


class TestRepeatedAddPrefix:
    def test_matches_repeated_addition_not_multiplication(self):
        step = 0.30000000000000004  # accumulating this is not k * step
        prefix = repeated_add_prefix(step, 64)
        value = 0.0
        for count in range(65):
            assert prefix[count] == value
            value += step

    def test_integral_step_is_exact(self):
        prefix = repeated_add_prefix(1.0, 100)
        assert np.array_equal(prefix, np.arange(101, dtype=np.float64))


class TestConcatRanges:
    def test_matches_nested_loops(self):
        begins = np.array([3, 10, 10, 0, 7])
        ends = np.array([7, 10, 13, 1, 7])
        flat, counts = concat_ranges(begins, ends)
        expected = [i for b, e in zip(begins, ends) for i in range(b, e)]
        assert flat.tolist() == expected
        assert counts.tolist() == [4, 0, 3, 1, 0]

    def test_all_empty(self):
        flat, counts = concat_ranges(np.array([5, 5]), np.array([5, 5]))
        assert len(flat) == 0
        assert counts.tolist() == [0, 0]


@st.composite
def range_batches(draw):
    """A placement (block, interleave or row over a random owner map), a
    batch of ranges and a ``max_range``.  Ranges may be empty or inverted,
    span many tiles, and the space may be shorter than the tile count."""
    num_tiles = draw(st.integers(min_value=1, max_value=40))
    length = draw(st.integers(min_value=1, max_value=120))
    policy = draw(st.sampled_from(["block", "interleave", "row"]))
    owner_map = None
    if policy == "row":
        owner_map = draw(st.lists(st.integers(0, num_tiles - 1),
                                  min_size=length, max_size=length))
        if draw(st.booleans()):  # sorted, as a row placement of block vertices
            owner_map.sort()
    space = make_space_placement(policy, length, num_tiles, owner_map=owner_map)
    bounds = st.integers(min_value=0, max_value=length)
    items = draw(st.lists(st.tuples(bounds, bounds), max_size=12))
    begins = np.array([b for b, _ in items], dtype=np.int64)
    ends = np.array([e for _, e in items], dtype=np.int64)
    max_range = draw(st.one_of(st.just(1), st.integers(2, 8), st.just(1024)))
    return space, begins, ends, max_range


class TestSplitRanges:
    @pytest.mark.parametrize("policy", ["block", "interleave"])
    def test_matches_scalar_invoke_range_order(self, policy):
        space = make_space_placement(policy, 97, 6)
        begins = np.array([0, 90, 13, 4, 50])
        ends = np.array([97, 90, 14, 40, 55])
        got = split_ranges(space, begins, ends, 7)
        expected = reference_loops.split_ranges(space, begins, ends, 7)
        for got_column, expected_column in zip(got, expected):
            assert got_column.dtype == expected_column.dtype == np.int64
            assert np.array_equal(got_column, expected_column)

    @settings(max_examples=300, deadline=None)
    @given(range_batches())
    def test_equals_the_per_item_loop(self, batch):
        space, begins, ends, max_range = batch
        got = split_ranges(space, begins, ends, max_range)
        expected = reference_loops.split_ranges(space, begins, ends, max_range)
        for got_column, expected_column in zip(got, expected):
            assert got_column.dtype == expected_column.dtype == np.int64
            assert np.array_equal(got_column, expected_column)

    def test_range_over_every_tile_with_unit_pieces(self):
        # Fewer elements than tiles: every element is its own block chunk.
        space = make_space_placement("block", 5, 16)
        dests, piece_begin, piece_end, counts = split_ranges(
            space, np.array([0, 3]), np.array([5, 3]), 1)
        assert dests.tolist() == [0, 1, 2, 3, 4]
        assert piece_begin.tolist() == [0, 1, 2, 3, 4]
        assert piece_end.tolist() == [1, 2, 3, 4, 5]
        assert counts.tolist() == [5, 0]


class TestRelaxMin:
    def _scalar(self, values, vertices, news):
        improved = np.zeros(len(vertices), dtype=bool)
        first = np.zeros(len(vertices), dtype=bool)
        seen_improving = set()
        for i, (v, new) in enumerate(zip(vertices.tolist(), news.tolist())):
            if new < values[v]:
                values[v] = new
                improved[i] = True
                if v not in seen_improving:
                    first[i] = True
                    seen_improving.add(v)
        return improved, first

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_loop_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n, num_vertices = 200, 17
        values_a = rng.uniform(0, 10, size=num_vertices)
        values_b = values_a.copy()
        vertices = rng.integers(0, num_vertices, size=n)
        news = rng.uniform(0, 10, size=n)
        improved_s, first_s = self._scalar(values_a, vertices, news)
        improved_b, first_b = relax_min(values_b, vertices, news)
        assert np.array_equal(values_a, values_b)
        assert np.array_equal(improved_s, improved_b)
        assert np.array_equal(first_s, first_b)

    def test_integer_levels(self):
        values_a = np.array([5, 5, 0], dtype=np.int64)
        values_b = values_a.copy()
        vertices = np.array([0, 0, 0, 1, 2])
        news = np.array([4, 4, 2, 7, 1], dtype=np.int64)
        improved_s, first_s = self._scalar(values_a, vertices, news)
        improved_b, first_b = relax_min(values_b, vertices, news)
        assert np.array_equal(values_a, values_b)
        assert np.array_equal(improved_s, improved_b)
        assert np.array_equal(first_s, first_b)

    def test_empty(self):
        values = np.array([1.0])
        improved, first = relax_min(values, np.empty(0, dtype=np.int64), np.empty(0))
        assert len(improved) == 0 and len(first) == 0


class TestFirstOccurrences:
    def test_matches_seen_set(self):
        indices = np.array([4, 2, 4, 4, 1, 2, 9, 1])
        seen = set()
        expected = []
        for value in indices.tolist():
            expected.append(value not in seen)
            seen.add(value)
        assert first_occurrences(indices).tolist() == expected


class TestSegmentsFromItems:
    def test_groups_consecutive_same_task_runs(self):
        class FakeTask:
            def __init__(self, name, num_params):
                self.name = name
                self.num_params = num_params

        t_a, t_b = FakeTask("A", 1), FakeTask("B", 2)
        items = [
            (0, t_a, (1,), 0, False),
            (3, t_a, (2,), 0, True),
            (1, t_b, (5, 6), 1, False),
            (2, t_a, (9,), 2, False),
        ]
        segments = segments_from_items(items)
        assert [s.task.name for s in segments] == ["A", "B", "A"]
        assert segments[0].tiles.tolist() == [0, 3]
        assert segments[0].params[0].tolist() == [1, 2]
        assert segments[0].remote.tolist() == [False, True]
        assert segments[1].params[1].tolist() == [6]
        assert segments[2].gens.tolist() == [2]


class TestOwnersOf:
    @pytest.mark.parametrize(
        "placement",
        [
            BlockPlacement(100, 7),
            BlockPlacement(5, 8),
            InterleavedPlacement(100, 7),
            OwnerMapPlacement(np.array([2, 0, 1, 1, 2, 0]), 3),
        ],
        ids=["block", "block-short", "interleave", "owner-map"],
    )
    def test_matches_scalar_owner(self, placement):
        indices = np.arange(placement.length)
        owners = placement.owners_of(indices)
        assert owners.tolist() == [placement.owner(int(i)) for i in indices]

    def test_bounds_checked_like_scalar(self):
        placement = BlockPlacement(10, 2)
        with pytest.raises(PlacementError):
            placement.owners_of(np.array([0, 10]))
        with pytest.raises(PlacementError):
            placement.owners_of(np.array([-1]))


class TestHopDistanceBatch:
    @pytest.mark.parametrize(
        "noc,extra",
        [("mesh", {}), ("torus", {}), ("torus_ruche", {"ruche_factor": 2}),
         ("mesh3d", {"depth": 2}), ("torus3d", {"depth": 3})],
    )
    def test_matches_scalar_hop_distance(self, noc, extra):
        topology = make_topology(noc, 5, 4, **extra)
        rng = np.random.default_rng(11)
        srcs = rng.integers(0, topology.num_tiles, size=200)
        dsts = rng.integers(0, topology.num_tiles, size=200)
        batch = topology.hop_distance_batch(srcs, dsts)
        scalar = [topology.hop_distance(int(s), int(d)) for s, d in zip(srcs, dsts)]
        assert batch.tolist() == scalar
        assert scalar == [
            len(reference_routing.route(topology, int(s), int(d))) - 1
            for s, d in zip(srcs, dsts)
        ]


class TestBatchedPathGate:
    @pytest.mark.parametrize(
        "overrides",
        [dict(noc="torus_ruche", width=8, height=8, ruche_factor=3),
         dict(noc="mesh3d", width=4, height=2, depth=2),
         dict(noc="torus3d", width=2, height=2, depth=3)],
        ids=["torus_ruche", "mesh3d", "torus3d"],
    )
    def test_ruche_and_3d_grids_engage_the_batched_path(self, overrides, small_rmat):
        from repro.apps import BFSKernel
        from repro.core.config import MachineConfig
        from repro.core.engine_analytic import AnalyticalEngine
        from repro.core.machine import DalorexMachine

        config = MachineConfig(engine="analytic", **overrides)
        machine = DalorexMachine(config, BFSKernel(root=0), small_rmat)
        engine = AnalyticalEngine(machine)
        assert engine._prepare_batch() is not None
        assert engine.batch_decline is None

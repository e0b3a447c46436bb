"""Unit tests for the data-placement policies."""

import numpy as np
import pytest

from repro.core.placement import (
    BlockPlacement,
    DataPlacement,
    InterleavedPlacement,
    OwnerMapPlacement,
    make_space_placement,
)
from repro.errors import PlacementError
from tests.core import reference_loops


class TestBlockPlacement:
    def test_contiguous_chunks(self):
        placement = BlockPlacement(16, 4)
        assert placement.owner(0) == 0
        assert placement.owner(3) == 0
        assert placement.owner(4) == 1
        assert placement.owner(15) == 3

    def test_local_index_within_chunk(self):
        placement = BlockPlacement(16, 4)
        assert placement.local_index(5) == 1
        assert placement.local_index(0) == 0

    def test_uneven_lengths(self):
        placement = BlockPlacement(10, 4)
        counts = placement.per_tile_counts()
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 3

    def test_chunk_lengths_sum_to_total(self):
        placement = BlockPlacement(103, 8)
        assert placement.per_tile_counts().sum() == 103

    def test_contiguous_ranges_split_at_boundaries(self):
        placement = BlockPlacement(16, 4)
        ranges = placement.contiguous_ranges(2, 10)
        assert ranges == [(0, 2, 4), (1, 4, 8), (2, 8, 10)]

    def test_out_of_range_index(self):
        with pytest.raises(PlacementError):
            BlockPlacement(8, 2).owner(8)


class TestInterleavedPlacement:
    def test_low_order_bits_pick_tile(self):
        placement = InterleavedPlacement(16, 4)
        assert placement.owner(0) == 0
        assert placement.owner(5) == 1
        assert placement.owner(7) == 3

    def test_local_index(self):
        placement = InterleavedPlacement(16, 4)
        assert placement.local_index(9) == 2

    def test_balance_is_perfect(self):
        placement = InterleavedPlacement(1000, 7)
        counts = placement.per_tile_counts()
        assert counts.max() - counts.min() <= 1
        assert counts.max() / counts.mean() <= 1.01

    def test_contiguous_ranges_are_single_elements(self):
        placement = InterleavedPlacement(16, 4)
        ranges = placement.contiguous_ranges(0, 4)
        assert len(ranges) == 4
        assert all(end - begin == 1 for _, begin, end in ranges)


class TestOwnerMapPlacement:
    def test_arbitrary_owner_map(self):
        placement = OwnerMapPlacement([2, 2, 0, 1, 2], 3)
        assert placement.owner(0) == 2
        assert placement.chunk_length(2) == 3
        assert placement.chunk_length(1) == 1

    def test_local_index_is_rank_within_owner(self):
        placement = OwnerMapPlacement([1, 0, 1, 1], 2)
        assert placement.local_index(0) == 0
        assert placement.local_index(2) == 1
        assert placement.local_index(3) == 2

    def test_invalid_owner_rejected(self):
        with pytest.raises(PlacementError):
            OwnerMapPlacement([0, 5], 2)

    def test_contiguous_ranges_group_by_owner(self):
        placement = OwnerMapPlacement([0, 0, 1, 1, 0], 2)
        ranges = placement.contiguous_ranges(0, 5)
        assert ranges == [(0, 0, 2), (1, 2, 4), (0, 4, 5)]


class TestFactoryAndDataPlacement:
    def test_make_space_placement_kinds(self):
        assert isinstance(make_space_placement("block", 10, 2), BlockPlacement)
        assert isinstance(make_space_placement("interleave", 10, 2), InterleavedPlacement)
        assert isinstance(make_space_placement("row", 3, 2, owner_map=[0, 1, 0]), OwnerMapPlacement)

    def test_row_requires_owner_map(self):
        with pytest.raises(PlacementError):
            make_space_placement("row", 4, 2)

    def test_unknown_policy(self):
        with pytest.raises(PlacementError):
            make_space_placement("hashed", 4, 2)

    def test_data_placement_spaces(self):
        placement = DataPlacement(4)
        placement.add_space("vertex", 100, "interleave")
        placement.add_space("edge", 400, "block")
        assert placement.owner("vertex", 5) == 1
        assert placement.length("edge") == 400
        assert placement.has_space("vertex")
        with pytest.raises(PlacementError):
            placement.space("matrix")

    def test_per_tile_entries(self):
        placement = DataPlacement(2)
        placement.add_space("vertex", 10, "interleave")
        placement.add_space("edge", 20, "block")
        totals = (2 * placement.space("vertex").per_tile_counts()
                  + placement.space("edge").per_tile_counts())
        assert totals.sum() == 2 * 10 + 20
        assert len(totals) == 2

    def test_block_and_interleave_spread_hubs_differently(self):
        # Hot elements at low indices: block placement puts them all on tile 0,
        # interleaving spreads them -- the paper's Uniform-Distr argument.
        hot = np.arange(8)
        block = BlockPlacement(64, 8)
        inter = InterleavedPlacement(64, 8)
        block_owners = {block.owner(int(i)) for i in hot}
        inter_owners = {inter.owner(int(i)) for i in hot}
        assert block_owners == {0}
        assert len(inter_owners) == 8


class TestPerTileCounts:
    """The closed-form per_tile_counts equals one chunk_length per tile."""

    @pytest.mark.parametrize("length,num_tiles", [
        (0, 1), (0, 7),                 # empty space
        (1, 16), (5, 16), (15, 16),     # fewer elements than tiles
        (16, 16), (64, 16),             # divisible
        (17, 16), (103, 8), (1000, 7),  # not divisible
        (35149, 16384),                 # a 128x128 edge space
    ])
    @pytest.mark.parametrize("policy", ["block", "interleave", "row"])
    def test_equals_the_chunk_length_loop(self, policy, length, num_tiles):
        owner_map = None
        if policy == "row":
            owner_map = np.random.default_rng(length).integers(0, num_tiles, size=length)
        placement = make_space_placement(policy, length, num_tiles, owner_map=owner_map)
        counts = placement.per_tile_counts()
        expected = reference_loops.per_tile_counts(placement)
        assert counts.dtype == expected.dtype == np.int64
        assert np.array_equal(counts, expected)
        assert counts.sum() == length

    def test_owner_map_counts_are_a_copy(self):
        placement = OwnerMapPlacement([1, 0, 1, 1], 2)
        placement.per_tile_counts()[1] = 0
        assert placement.per_tile_counts().tolist() == [1, 3]

    def test_owner_map_local_index_on_a_long_map(self):
        owners = np.random.default_rng(3).integers(0, 5, size=200)
        placement = OwnerMapPlacement(owners, 5)
        seen = [0] * 5
        for index, tile in enumerate(owners.tolist()):
            assert placement.local_index(index) == seen[tile]
            seen[tile] += 1

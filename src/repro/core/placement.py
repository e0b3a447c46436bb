"""Data placement: which tile owns each element of each distributed array.

The paper's central idea is that every data array is split across tiles and all
operations execute where the data lives.  Three policies are provided:

* ``block`` -- contiguous equal chunks (high-order index bits pick the tile).
  This is the paper's edge-array chunking and also the "vertex-based" placement
  used by Tesseract.
* ``interleave`` -- low-order index bits pick the tile (element ``i`` goes to
  tile ``i % T``).  This is the paper's *Uniform-Distr* placement that spreads
  hot vertices across tiles.
* ``owner_map`` -- an arbitrary per-element owner array.  Used to co-locate each
  edge with the tile owning its source vertex ("row" placement), which models
  Tesseract's vertex-centric distribution of the adjacency data.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlacementError

Range = Tuple[int, int, int]  # (tile, begin, end) with end exclusive


class SpacePlacement(ABC):
    """Placement of one index space (e.g. the vertex space) across tiles."""

    def __init__(self, length: int, num_tiles: int) -> None:
        if length < 0:
            raise PlacementError("space length cannot be negative")
        if num_tiles < 1:
            raise PlacementError("need at least one tile")
        self.length = length
        self.num_tiles = num_tiles

    def _check_index(self, index: int) -> None:
        if index < 0 or index >= self.length:
            raise PlacementError(f"index {index} out of range [0, {self.length})")

    @abstractmethod
    def owner(self, index: int) -> int:
        """Tile owning element ``index``."""

    @abstractmethod
    def local_index(self, index: int) -> int:
        """Position of element ``index`` within its owner's chunk."""

    @abstractmethod
    def chunk_length(self, tile: int) -> int:
        """Number of elements owned by ``tile``."""

    def _check_indices(self, indices: np.ndarray) -> None:
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.length
        ):
            bad = indices[(indices < 0) | (indices >= self.length)][0]
            raise PlacementError(f"index {int(bad)} out of range [0, {self.length})")

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        """Owner tile of every index in ``indices`` (batched :meth:`owner`).

        Subclasses with regular structure override the per-element fallback
        with closed-form array arithmetic; all paths bounds-check like the
        scalar accessor.
        """
        indices = np.asarray(indices, dtype=np.int64)
        self._check_indices(indices)
        return np.array([self.owner(int(i)) for i in indices], dtype=np.int64)

    def contiguous_ranges(self, begin: int, end: int) -> List[Range]:
        """Split ``[begin, end)`` into maximal sub-ranges owned by a single tile.

        The default implementation walks the range grouping consecutive indices
        by owner; subclasses with regular structure override it with O(#tiles)
        logic.
        """
        if begin >= end:
            return []
        self._check_index(begin)
        self._check_index(end - 1)
        ranges: List[Range] = []
        current_owner = self.owner(begin)
        range_start = begin
        for index in range(begin + 1, end):
            owner = self.owner(index)
            if owner != current_owner:
                ranges.append((current_owner, range_start, index))
                current_owner = owner
                range_start = index
        ranges.append((current_owner, range_start, end))
        return ranges

    @abstractmethod
    def per_tile_counts(self) -> np.ndarray:
        """Element count per tile: :meth:`chunk_length` of every tile."""


class BlockPlacement(SpacePlacement):
    """Contiguous equal chunks: element ``i`` lives on tile ``i // chunk_size``."""

    def __init__(self, length: int, num_tiles: int) -> None:
        super().__init__(length, num_tiles)
        self.chunk_size = max(1, -(-length // num_tiles)) if length else 1

    def owner(self, index: int) -> int:
        if not 0 <= index < self.length:
            self._check_index(index)
        tile = index // self.chunk_size
        return tile if tile < self.num_tiles else self.num_tiles - 1

    def local_index(self, index: int) -> int:
        self._check_index(index)
        return index - self.owner(index) * self.chunk_size

    def chunk_length(self, tile: int) -> int:
        if tile < 0 or tile >= self.num_tiles:
            raise PlacementError(f"tile {tile} out of range")
        begin = tile * self.chunk_size
        end = min(self.length, (tile + 1) * self.chunk_size)
        return max(0, end - begin)

    def contiguous_ranges(self, begin: int, end: int) -> List[Range]:
        if begin >= end:
            return []
        self._check_index(begin)
        self._check_index(end - 1)
        ranges: List[Range] = []
        cursor = begin
        while cursor < end:
            tile = self.owner(cursor)
            tile_end = min(end, (tile + 1) * self.chunk_size, self.length)
            ranges.append((tile, cursor, tile_end))
            cursor = tile_end
        return ranges

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        self._check_indices(indices)
        return np.minimum(indices // self.chunk_size, self.num_tiles - 1)

    def per_tile_counts(self) -> np.ndarray:
        starts = np.arange(self.num_tiles, dtype=np.int64) * self.chunk_size
        return np.clip(self.length - starts, 0, self.chunk_size)


class InterleavedPlacement(SpacePlacement):
    """Low-order-bit placement: element ``i`` lives on tile ``i % num_tiles``."""

    def owner(self, index: int) -> int:
        if not 0 <= index < self.length:
            self._check_index(index)
        return index % self.num_tiles

    def local_index(self, index: int) -> int:
        self._check_index(index)
        return index // self.num_tiles

    def chunk_length(self, tile: int) -> int:
        if tile < 0 or tile >= self.num_tiles:
            raise PlacementError(f"tile {tile} out of range")
        if self.length == 0:
            return 0
        base = self.length // self.num_tiles
        return base + (1 if tile < self.length % self.num_tiles else 0)

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        self._check_indices(indices)
        return indices % self.num_tiles

    def per_tile_counts(self) -> np.ndarray:
        base, extra = divmod(self.length, self.num_tiles)
        return base + (np.arange(self.num_tiles, dtype=np.int64) < extra)


class OwnerMapPlacement(SpacePlacement):
    """Placement defined by an explicit per-element owner array."""

    def __init__(self, owner_map: Sequence[int], num_tiles: int) -> None:
        owner_array = np.asarray(owner_map, dtype=np.int64)
        super().__init__(len(owner_array), num_tiles)
        if len(owner_array) and (owner_array.min() < 0 or owner_array.max() >= num_tiles):
            raise PlacementError("owner map references a tile out of range")
        self.owner_map = owner_array
        self._counts = np.bincount(owner_array, minlength=num_tiles)

    def owner(self, index: int) -> int:
        if not 0 <= index < self.length:
            self._check_index(index)
        return int(self.owner_map[index])

    def local_index(self, index: int) -> int:
        """Rank of the element among the elements with the same owner."""
        self._check_index(index)
        return int(np.count_nonzero(self.owner_map[:index] == self.owner_map[index]))

    def chunk_length(self, tile: int) -> int:
        if tile < 0 or tile >= self.num_tiles:
            raise PlacementError(f"tile {tile} out of range")
        return int(self._counts[tile])

    def owners_of(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        self._check_indices(indices)
        return self.owner_map[indices]

    def per_tile_counts(self) -> np.ndarray:
        return self._counts.copy()


POLICY_NAMES = ("block", "interleave", "row")


def make_space_placement(
    policy: str,
    length: int,
    num_tiles: int,
    owner_map: Optional[Sequence[int]] = None,
) -> SpacePlacement:
    """Build a placement for one space from a policy name."""
    key = policy.strip().lower()
    if key == "block":
        return BlockPlacement(length, num_tiles)
    if key == "interleave":
        return InterleavedPlacement(length, num_tiles)
    if key == "row" or key == "owner_map":
        if owner_map is None:
            raise PlacementError("row/owner_map placement requires an owner map")
        return OwnerMapPlacement(owner_map, num_tiles)
    raise PlacementError(f"unknown placement policy {policy!r}; expected one of {POLICY_NAMES}")


class DataPlacement:
    """Placement of every index space used by a program across the tile grid."""

    def __init__(self, num_tiles: int) -> None:
        if num_tiles < 1:
            raise PlacementError("need at least one tile")
        self.num_tiles = num_tiles
        self.spaces: Dict[str, SpacePlacement] = {}

    def add_space(
        self,
        name: str,
        length: int,
        policy: str,
        owner_map: Optional[Sequence[int]] = None,
    ) -> None:
        """Register a space (e.g. ``"vertex"``) with its placement policy."""
        self.spaces[name] = make_space_placement(policy, length, self.num_tiles, owner_map)

    def has_space(self, name: str) -> bool:
        return name in self.spaces

    def space(self, name: str) -> SpacePlacement:
        if name not in self.spaces:
            raise PlacementError(f"unknown space {name!r}; known: {sorted(self.spaces)}")
        return self.spaces[name]

    def length(self, space: str) -> int:
        return self.space(space).length

    def owner(self, space: str, index: int) -> int:
        return self.space(space).owner(index)

    def local_index(self, space: str, index: int) -> int:
        return self.space(space).local_index(index)

    def chunk_length(self, space: str, tile: int) -> int:
        return self.space(space).chunk_length(tile)

    def contiguous_ranges(self, space: str, begin: int, end: int) -> List[Range]:
        return self.space(space).contiguous_ranges(begin, end)

"""Sharded simulation primitives: tile-extent partitioning and link-state codec.

One simulation can be partitioned across ``S`` shard workers: the tile grid is
split into ``S`` contiguous tile extents (spartan-style block splitting), each
shard executes the items of every segment whose destination tile falls inside
its extent, and a hub coordinator keeps the global worklist order.  This
module owns the pieces that are pure data plumbing:

* :class:`ShardPlan` -- the balanced contiguous tile split plus the
  vectorized tile->shard ownership map;
* the **link-state codec** (:func:`export_link_state` /
  :func:`apply_link_state`) that ships a shard's per-epoch
  :class:`~repro.noc.analytical.LinkLoadModel` integer tallies -- per-slot
  link loads and per-tile router and endpoint loads -- to the hub.
  Float flit-millimeters are deliberately *excluded*: IEEE addition does not
  associate, so the hub replays that fold itself in global emission order
  (see :mod:`repro.core.shard_exec` for the determinism argument).

Everything here is deterministic and transport-independent; byte-identical
reports at any shard count are a property of the algorithm, not the wire
(the process transport pickles numpy columns, which keeps dtypes exact).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.noc.analytical import LinkLoadModel


class ShardPlan:
    """Contiguous balanced partition of ``num_tiles`` tiles into shards.

    Shard ``i`` owns tiles ``[bounds[i], bounds[i+1])``; the first
    ``num_tiles % shards`` extents are one tile longer, so no two extents
    differ by more than one tile.  Requested shard counts above the tile
    count are clamped (an extent must own at least one tile).
    """

    def __init__(self, num_tiles: int, shards: int) -> None:
        if num_tiles < 1:
            raise ConfigurationError("a shard plan needs at least one tile")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.num_tiles = int(num_tiles)
        self.num_shards = min(int(shards), self.num_tiles)
        base, extra = divmod(self.num_tiles, self.num_shards)
        sizes = np.full(self.num_shards, base, dtype=np.int64)
        sizes[:extra] += 1
        self.bounds = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.bounds[1:])

    def extent(self, shard: int) -> Tuple[int, int]:
        """Half-open tile range ``[lo, hi)`` owned by ``shard``."""
        if shard < 0 or shard >= self.num_shards:
            raise ConfigurationError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        return int(self.bounds[shard]), int(self.bounds[shard + 1])

    def owner_of(self, tiles: np.ndarray) -> np.ndarray:
        """Shard index owning each tile id (vectorized)."""
        tiles = np.asarray(tiles, dtype=np.int64)
        return np.searchsorted(self.bounds, tiles, side="right") - 1

    def owned_mask(self, shard: int, tiles: np.ndarray) -> np.ndarray:
        lo, hi = self.extent(shard)
        tiles = np.asarray(tiles, dtype=np.int64)
        return (tiles >= lo) & (tiles < hi)

    def shards_of(self, tiles: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(shard, item_index_array)`` for every shard with items.

        Index arrays preserve the original item order, so per-shard
        sub-columns keep their relative (and hence per-tile) ordering.
        """
        owners = self.owner_of(tiles)
        for shard in np.unique(owners).tolist():
            yield int(shard), np.flatnonzero(owners == shard)

    def describe(self) -> str:
        return f"{self.num_shards} shard(s) over {self.num_tiles} tiles"


# ---------------------------------------------------------- link-state codec
#: The per-slot and per-tile tallies the codec ships, as int64 arrays.
LINK_STATE_ARRAYS = ("slot_flits", "router_flits", "injected_flits", "ejected_flits")


def export_link_state(link: LinkLoadModel) -> Dict[str, Any]:
    """Integer traffic tallies of one epoch-local link model, as arrays.

    ``total_flit_millimeters`` is intentionally omitted: the shard's local
    fold order differs from the serial engine's global emission order, so the
    hub recomputes the millimeter fold itself (bit-exactly) from the
    messages' routes.
    """
    state: Dict[str, Any] = {name: getattr(link, name) for name in LINK_STATE_ARRAYS}
    state["total_flit_hops"] = int(link.total_flit_hops)
    state["total_messages"] = int(link.total_messages)
    state["bisection_flits"] = int(link._bisection_flits)
    return state


def apply_link_state(target: LinkLoadModel, state: Dict[str, Any]) -> None:
    """Accumulate one shard's exported integer tallies into ``target``."""
    for name in LINK_STATE_ARRAYS:
        tally = getattr(target, name)
        tally += np.asarray(state[name], dtype=np.int64)
    target.total_flit_hops += int(state["total_flit_hops"])
    target.total_messages += int(state["total_messages"])
    target._bisection_flits += int(state["bisection_flits"])

"""Analytical link-load model used by the fast (non-cycle) simulation engine.

Every message is routed over the topology and its flits are charged to each
directed link on the path.  The resulting per-link loads bound the achievable
runtime (one flit per link per cycle), expose the mesh-vs-torus center
congestion the paper shows in Fig. 10, and feed the energy model via flit-hops.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.batch import sequential_sum as _sequential_sum
from repro.noc.topology import Topology

Link = Tuple[int, int]

#: Route links one batched expansion materializes at most.  The closed-form
#: expansion holds about a dozen 8-byte temporaries per link, so one huge
#: segment's working set stays near 100 MB instead of growing with it.
ROUTE_CHUNK_LINKS = 1 << 20


def _route_chunks(hops: np.ndarray, srcs: np.ndarray, dsts: np.ndarray, flits):
    """Split messages, in order, into runs of about ROUTE_CHUNK_LINKS links.

    Yields ``(srcs, dsts, link_flits)`` per run: ``link_flits`` is the flits
    of every route link of the run, or the batch's one ``flits`` int.
    """
    ends = np.cumsum(hops)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(ROUTE_CHUNK_LINKS, total, ROUTE_CHUNK_LINKS))
    runs = zip(np.split(srcs, cuts), np.split(dsts, cuts))
    if np.ndim(flits) == 0:
        for src, dst in runs:
            yield src, dst, flits
        return
    for (src, dst), hop, flit in zip(runs, np.split(hops, cuts), np.split(flits, cuts)):
        yield src, dst, np.repeat(flit, hop)


def _flit_tally(keys: np.ndarray, flits, minlength: int) -> np.ndarray:
    """Flits per key: ``flits`` is one length for every entry, or one per entry."""
    if np.ndim(flits) == 0:
        return flits * np.bincount(keys, minlength=minlength)
    # bincount weights go through float64, exact for < 2^53 flit totals.
    return np.bincount(keys, weights=flits, minlength=minlength).astype(np.int64)


def _link_charges(codes: np.ndarray, link_flits) -> tuple:
    """Distinct link codes, ascending, and the flits charged to each."""
    if np.ndim(link_flits) == 0:
        links, traversals = np.unique(codes, return_counts=True)
        return links, link_flits * traversals
    links, inverse = np.unique(codes, return_inverse=True)
    return links, _flit_tally(inverse, link_flits, len(links))


class LinkLoadModel:
    """Accumulates flit traffic per directed link, per router, and per endpoint.

    Two accounting modes are supported:

    * ``detailed=True`` (default): every message is routed and its flits are
      charged to each link on the path.  Exact, but O(hops) per message --
      appropriate up to a few thousand tiles.
    * ``detailed=False``: only aggregate statistics are kept (flit-hops via the
      O(1) hop distance, endpoint loads, bisection crossings); the hottest link
      is estimated as ``flit_hops / links * congestion_factor``.  Used by the
      analytical engine on very large grids, where per-link accounting would
      dominate simulation time.
    """

    def __init__(self, topology: Topology, detailed: bool = True) -> None:
        self.topology = topology
        self.detailed = detailed
        self.link_flits: Dict[Link, int] = {}
        # Per-tile counters are plain Python lists: the hot path increments
        # single elements, where numpy scalar indexing costs ~10x more.
        # router_traffic() materializes the numpy view on demand.
        self.router_flits = [0] * topology.num_tiles
        self.injected_flits = [0] * topology.num_tiles
        self.ejected_flits = [0] * topology.num_tiles
        self.total_flit_hops = 0
        self.total_flit_millimeters = 0.0
        self.total_messages = 0
        self._bisection_flits = 0

    def record_message(self, src: int, dst: int, flits: int, tile_pitch_mm: float = 1.0) -> int:
        """Charge one ``flits``-long message from ``src`` to ``dst``.

        Returns the hop count of the route (0 for a local, same-tile message).
        """
        self.total_messages += 1
        self.injected_flits[src] += flits
        self.ejected_flits[dst] += flits
        if src == dst:
            return 0
        if not self.detailed:
            hops = self.topology.hop_distance(src, dst)
            self.total_flit_hops += flits * hops
            self.total_flit_millimeters += (
                flits * self.topology.route_span_tiles(src, dst) * tile_pitch_mm
            )
            middle = self.topology.width // 2
            if (self.topology.coords(src)[0] < middle) != (self.topology.coords(dst)[0] < middle):
                self._bisection_flits += flits
            return hops
        links, lengths = self.topology.route_profile(src, dst)
        link_flits = self.link_flits
        router_flits = self.router_flits
        millimeters = self.total_flit_millimeters
        for link, length in zip(links, lengths):
            link_flits[link] = link_flits.get(link, 0) + flits
            router_flits[link[0]] += flits
            millimeters += flits * length * tile_pitch_mm
        self.total_flit_millimeters = millimeters
        router_flits[dst] += flits
        self.total_flit_hops += flits * len(links)
        return len(links)

    def record_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, flits, tile_pitch_mm: float = 1.0
    ) -> np.ndarray:
        """Charge a batch of messages; returns per-message hops.

        ``flits`` is every message's length: one int for the whole batch,
        or an int array aligned with ``srcs``.  Bit-equal to calling
        :meth:`record_message` once per ``(src, dst)`` pair in order: routes
        come in closed form from the topology, the integer tallies are
        order-free (weighted) scatters, and the one float accumulator folds
        the scalar loop's own terms in its order (see
        :meth:`fold_millimeters`).
        """
        topology = self.topology
        num = len(srcs)
        self.total_messages += num
        if num == 0:
            return np.zeros(0, dtype=np.int64)
        num_tiles = topology.num_tiles
        inject = np.asarray(self.injected_flits, dtype=np.int64)
        inject += _flit_tally(srcs, flits, num_tiles)
        self.injected_flits = inject.tolist()
        eject = np.asarray(self.ejected_flits, dtype=np.int64)
        eject += _flit_tally(dsts, flits, num_tiles)
        self.ejected_flits = eject.tolist()

        nonlocal_mask = srcs != dsts
        hops = np.zeros(num, dtype=np.int64)
        if not nonlocal_mask.any():
            return hops
        nl_src = srcs[nonlocal_mask]
        nl_dst = dsts[nonlocal_mask]
        if np.ndim(flits):
            flits = flits[nonlocal_mask]
        nl_hops = topology.hop_distance_batch(nl_src, nl_dst)
        hops[nonlocal_mask] = nl_hops
        self.total_flit_hops += int((flits * nl_hops).sum())

        if not self.detailed:
            self.fold_millimeters(nl_src, nl_dst, flits, tile_pitch_mm)
            middle = topology.width // 2
            crossing = ((nl_src % topology.width) < middle) != (
                (nl_dst % topology.width) < middle
            )
            self._bisection_flits += int((flits * crossing).sum())
            return hops

        link_flits = self.link_flits
        router_flits = np.asarray(self.router_flits, dtype=np.int64)
        router_flits += _flit_tally(nl_dst, flits, num_tiles)
        for src, dst, weight in _route_chunks(nl_hops, nl_src, nl_dst, flits):
            codes, lengths = topology.route_link_codes(src, dst)
            self.total_flit_millimeters = _sequential_sum(
                self.total_flit_millimeters, weight * lengths * tile_pitch_mm
            )
            links, charges = _link_charges(codes, weight)
            for code, charge in zip(links.tolist(), charges.tolist()):
                link = (code // num_tiles, code % num_tiles)
                link_flits[link] = link_flits.get(link, 0) + charge
            router_flits += _flit_tally(links // num_tiles, charges, num_tiles)
        self.router_flits = router_flits.tolist()
        return hops

    def fold_millimeters(
        self, srcs: np.ndarray, dsts: np.ndarray, flits, tile_pitch_mm: float = 1.0
    ) -> None:
        """Add non-local messages' flit-millimeters in :meth:`record_message` order.

        IEEE addition does not associate and ruche or TSV links make the
        terms unequal, so the terms are the scalar loop's own -- one per
        link, message by message, in route order (one per message in the
        aggregate mode) -- folded left to right with ``sequential_sum``, one
        in-order chunk of routes after another.  ``flits`` is one int or an
        array aligned with ``srcs``, as in :meth:`record_batch`.
        :meth:`record_batch` folds the per-link terms in the loop that
        charges the links; the shard hub calls this to replay the serial
        fold.
        """
        topology = self.topology
        if not self.detailed:
            self.total_flit_millimeters = _sequential_sum(
                self.total_flit_millimeters,
                flits * topology.route_span_tiles_batch(srcs, dsts) * tile_pitch_mm,
            )
            return
        hops = topology.hop_distance_batch(srcs, dsts)
        for src, dst, weight in _route_chunks(hops, srcs, dsts, flits):
            self.total_flit_millimeters = _sequential_sum(
                self.total_flit_millimeters,
                weight * topology.route_link_lengths(src, dst) * tile_pitch_mm,
            )

    # ------------------------------------------------------------------ bounds
    def max_link_load(self) -> float:
        """Heaviest per-link flit count: a lower bound on cycles (1 flit/cycle)."""
        if not self.detailed:
            links = max(1, self.topology.num_directed_links())
            return self.total_flit_hops / links * self.topology.congestion_factor
        return max(self.link_flits.values(), default=0)

    def max_endpoint_load(self) -> int:
        """Heaviest injection/ejection flit count over all tiles."""
        inject = max(self.injected_flits, default=0)
        eject = max(self.ejected_flits, default=0)
        return int(max(inject, eject))

    def bisection_load(self) -> int:
        """Flits crossing the vertical middle cut (both directions)."""
        if not self.detailed:
            return self._bisection_flits
        middle = self.topology.width // 2
        total = 0
        for (src, dst), flits in self.link_flits.items():
            # coords() yields (x, y) on 2D topologies and (x, y, z) on 3D
            # stacks; the vertical middle cut only cares about x.
            sx = self.topology.coords(src)[0]
            dx = self.topology.coords(dst)[0]
            if (sx < middle) != (dx < middle):
                total += flits
        return total

    def bisection_bound_cycles(self) -> float:
        """Cycles needed to push the bisection traffic through the bisection links."""
        links = self.topology.bisection_links()
        if links == 0:
            return 0.0
        return self.bisection_load() / links

    def network_bound_cycles(self) -> float:
        """Overall network lower bound on execution cycles."""
        return float(
            max(self.max_link_load(), self.max_endpoint_load(), self.bisection_bound_cycles())
        )

    # ------------------------------------------------------------------- stats
    def router_traffic(self) -> np.ndarray:
        """Flits traversing each router (for utilization heatmaps)."""
        return np.array(self.router_flits, dtype=np.int64)

    def link_load_matrix(self) -> np.ndarray:
        """Dense (num_tiles x num_tiles) matrix of link loads (0 where no link)."""
        matrix = np.zeros((self.topology.num_tiles, self.topology.num_tiles), dtype=np.int64)
        for (src, dst), flits in self.link_flits.items():
            matrix[src, dst] = flits
        return matrix

    def merge(self, other: "LinkLoadModel") -> None:
        """Accumulate another model's traffic into this one.

        Both models must use the same accounting mode and an identical
        topology; merging across modes would silently drop the detailed
        per-link loads (or the aggregate bisection estimate) and miscount
        every bound derived from them, so a mismatch raises instead.
        """
        if self.detailed != other.detailed:
            raise ValueError(
                f"cannot merge a detailed={other.detailed} link-load model into "
                f"a detailed={self.detailed} one; per-link and aggregate "
                "accounting are not interchangeable"
            )
        if not self.topology.same_grid(other.topology):
            raise ValueError(
                "cannot merge link-load models built on different topologies: "
                f"{self.topology.describe()} vs {other.topology.describe()}"
            )
        for link, flits in other.link_flits.items():
            self.link_flits[link] = self.link_flits.get(link, 0) + flits
        for tile, flits in enumerate(other.router_flits):
            self.router_flits[tile] += flits
        for tile, flits in enumerate(other.injected_flits):
            self.injected_flits[tile] += flits
        for tile, flits in enumerate(other.ejected_flits):
            self.ejected_flits[tile] += flits
        self.total_flit_hops += other.total_flit_hops
        self.total_flit_millimeters += other.total_flit_millimeters
        self.total_messages += other.total_messages
        self._bisection_flits += other._bisection_flits

    def reset(self) -> None:
        """Clear all accumulated traffic."""
        self.link_flits.clear()
        num_tiles = self.topology.num_tiles
        self.router_flits = [0] * num_tiles
        self.injected_flits = [0] * num_tiles
        self.ejected_flits = [0] * num_tiles
        self.total_flit_hops = 0
        self.total_flit_millimeters = 0.0
        self.total_messages = 0
        self._bisection_flits = 0

"""Analytical link-load model used by the fast (non-cycle) simulation engine.

Every message is routed over the topology and its flits are charged to each
directed link on the path.  The resulting per-link loads bound the achievable
runtime (one flit per link per cycle), expose the mesh-vs-torus center
congestion the paper shows in Fig. 10, and feed the energy model via flit-hops.

Per-link loads live in one int64 array over the topology's
:meth:`~repro.noc.topology.Topology.slot_layout` slots (``tile * ports +
output port``), the numbering both cycle-engine network models use.  A
batch charges each route *leg* -- a run of hops through one output port --
as one interval of the layout's :attr:`~repro.noc.topology.SlotLayout.cycle_order`,
two entries of a difference array, so its cost grows with messages and
slots, not with hops.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.batch import sequential_sum as _sequential_sum
from repro.noc.topology import Topology

Link = Tuple[int, int]

#: Route links one batched millimeter fold materializes at most: the fold
#: keeps one float per hop (IEEE addition does not associate), so one huge
#: segment's working set stays bounded instead of growing with it.
ROUTE_CHUNK_LINKS = 1 << 20


def _per_leg(flits, legs: int, messages: int):
    """Messages' flits per route leg: the batch's one int, or each message's
    length repeated over its legs (every message has equally many)."""
    if np.ndim(flits) == 0:
        return flits
    return np.repeat(flits, legs // max(messages, 1))


def _flit_tally(keys: np.ndarray, flits, minlength: int) -> np.ndarray:
    """Flits per key: ``flits`` is one length for every entry, or one per entry."""
    if np.ndim(flits) == 0:
        return flits * np.bincount(keys, minlength=minlength)
    # bincount weights go through float64, exact for < 2^53 flit totals.
    return np.bincount(keys, weights=flits, minlength=minlength).astype(np.int64)


class LinkLoadModel:
    """Accumulates flit traffic per directed link, per router, and per endpoint.

    Two accounting modes are supported:

    * ``detailed=True`` (default): every message is routed and its flits are
      charged to each link on the path, kept per slot in :attr:`slot_flits`.
    * ``detailed=False``: only aggregate statistics are kept (flit-hops via the
      O(1) hop distance, endpoint loads, bisection crossings); the hottest link
      is estimated as ``flit_hops / links * congestion_factor``, and
      :attr:`slot_flits` is empty.  Used by the analytical engine on very
      large grids.

    Every tally is an int64 array: ``slot_flits`` per link slot,
    ``router_flits``, ``injected_flits`` and ``ejected_flits`` per tile.
    """

    def __init__(self, topology: Topology, detailed: bool = True) -> None:
        self.topology = topology
        self.detailed = detailed
        num_tiles = topology.num_tiles
        num_slots = topology.slot_layout().num_slots if detailed else 0
        self.slot_flits = np.zeros(num_slots, dtype=np.int64)
        self.router_flits = np.zeros(num_tiles, dtype=np.int64)
        self.injected_flits = np.zeros(num_tiles, dtype=np.int64)
        self.ejected_flits = np.zeros(num_tiles, dtype=np.int64)
        self.total_flit_hops = 0
        self.total_flit_millimeters = 0.0
        self.total_messages = 0
        self._bisection_flits = 0

    @property
    def link_flits(self) -> Dict[Link, int]:
        """Flits per used directed link, ``(src, dst) -> flits`` (a view
        derived from :attr:`slot_flits`)."""
        return self.topology.slot_layout().link_view(self.slot_flits)

    def record_message(self, src: int, dst: int, flits: int, tile_pitch_mm: float = 1.0) -> int:
        """Charge one ``flits``-long message from ``src`` to ``dst``.

        Returns the hop count of the route (0 for a local, same-tile message).
        A tile outside the grid raises before anything is counted.
        """
        self.topology._check_tiles(src, dst)
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
        slots, lengths = self.topology.route_profile(src, dst)
        route = np.array(slots)
        # A minimal route visits every slot and every router at most once,
        # so the fancy-indexed additions never repeat an index.
        self.slot_flits[route] += flits
        self.router_flits[route // self.topology.slot_layout().ports] += flits
        self.router_flits[dst] += flits
        millimeters = self.total_flit_millimeters
        for length in lengths:
            millimeters += flits * length * tile_pitch_mm
        self.total_flit_millimeters = millimeters
        self.total_flit_hops += flits * len(slots)
        return len(slots)

    def record_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, flits, tile_pitch_mm: float = 1.0
    ) -> np.ndarray:
        """Charge a batch of messages; returns per-message hops.

        ``flits`` is every message's length: one int for the whole batch,
        or an int array aligned with ``srcs``.  Bit-equal to calling
        :meth:`record_message` once per ``(src, dst)`` pair in order.  The
        integer tallies are order-free.  The one float accumulator folds the
        scalar loop's own terms left to right, since IEEE addition does not
        associate and ruche or TSV links make the terms unequal: one term per
        hop (:meth:`_fold_legs`), or one per message in the aggregate mode.
        Routes come from the topology as legs, each charged to its slots as
        one interval (:meth:`_charge_legs`).  A tile outside the grid raises
        :meth:`record_message`'s error before anything is counted.
        """
        topology = self.topology
        num = len(srcs)
        num_tiles = topology.num_tiles
        if num and (min(srcs.min(), dsts.min()) < 0
                    or max(srcs.max(), dsts.max()) >= num_tiles):
            outside = (srcs < 0) | (srcs >= num_tiles) | (dsts < 0) | (dsts >= num_tiles)
            first = int(np.argmax(outside))
            topology._check_tiles(int(srcs[first]), int(dsts[first]))
        self.total_messages += num
        if num == 0:
            return np.zeros(0, dtype=np.int64)
        self.injected_flits += _flit_tally(srcs, flits, num_tiles)
        self.ejected_flits += _flit_tally(dsts, flits, num_tiles)

        nonlocal_mask = srcs != dsts
        hops = np.zeros(num, dtype=np.int64)
        if not nonlocal_mask.any():
            return hops
        nl_src = srcs[nonlocal_mask]
        nl_dst = dsts[nonlocal_mask]
        if np.ndim(flits):
            flits = flits[nonlocal_mask]
        if self.detailed:
            leg_hops, tiles, ports = topology._route_legs(nl_src, nl_dst)
            nl_hops = leg_hops.reshape(len(nl_src), -1).sum(axis=1)
            leg_flits = _per_leg(flits, len(leg_hops), len(nl_src))
            self._fold_legs(leg_hops, ports, leg_flits, tile_pitch_mm)
            self._charge_legs(leg_hops, tiles, ports, leg_flits)
            self.router_flits += _flit_tally(nl_dst, flits, num_tiles)
        else:
            nl_hops = topology.hop_distance_batch(nl_src, nl_dst)
            self.total_flit_millimeters = _sequential_sum(
                self.total_flit_millimeters,
                flits * topology.route_span_tiles_batch(nl_src, nl_dst) * tile_pitch_mm,
            )
            middle = topology.width // 2
            crossing = ((nl_src % topology.width) < middle) != (
                (nl_dst % topology.width) < middle
            )
            self._bisection_flits += int((flits * crossing).sum())
        hops[nonlocal_mask] = nl_hops
        self.total_flit_hops += int((flits * nl_hops).sum())
        return hops

    def _charge_legs(self, hops: np.ndarray, tiles: np.ndarray, ports: np.ndarray, flits) -> None:
        """Charge route legs to their slots and routers, O(legs + slots).

        A leg's hops are consecutive positions of the layout's doubled
        :attr:`~repro.noc.topology.SlotLayout.cycle_order`, so the leg adds
        its flits at the start of that interval and subtracts them past its
        end; one cumulative sum turns the differences into per-position
        loads, and a slot's load is the sum of its two positions.
        """
        layout = self.topology.slot_layout()
        first, second, cycle = layout.cycle_order
        # A leg with a negative step runs down its cycle: its interval ends
        # at the position after its first hop's second copy.
        starts = first[tiles * layout.ports + ports] + np.where(
            layout.port_table()[0][ports] < 0, cycle[ports] + 1 - hops, 0
        )
        positions = 2 * len(first) + 1
        loads = np.cumsum(
            _flit_tally(starts, flits, positions) - _flit_tally(starts + hops, flits, positions)
        )
        loads = loads[first] + loads[second]
        self.slot_flits += loads
        self.router_flits += loads.reshape(-1, layout.ports).sum(axis=1)

    def _fold_legs(self, hops: np.ndarray, ports: np.ndarray, flits, tile_pitch_mm: float) -> None:
        """Fold route legs' flit-millimeters in :meth:`record_message` order.

        A leg's term is ``flits * length * pitch``, repeated over its hops;
        the terms fold left to right, ROUTE_CHUNK_LINKS hops at a time, as
        ``sequential_sum`` folds them, in the repeated terms' own buffer.
        """
        terms = flits * self.topology.slot_layout().port_table()[3][ports] * tile_pitch_mm
        ends = np.cumsum(hops)
        cuts = np.searchsorted(
            ends, np.arange(ROUTE_CHUNK_LINKS, ends[-1] if len(ends) else 0, ROUTE_CHUNK_LINKS)
        )
        total = self.total_flit_millimeters
        for term, hop in zip(np.split(terms, cuts), np.split(hops, cuts)):
            chain = np.repeat(term, hop)
            if len(chain):
                chain[0] += total  # the fold's first addition, total + t0
                total = float(np.add.accumulate(chain, out=chain)[-1])
        self.total_flit_millimeters = total

    # ------------------------------------------------------------------ bounds
    def max_link_load(self) -> float:
        """Heaviest per-link flit count: a lower bound on cycles (1 flit/cycle)."""
        if not self.detailed:
            links = max(1, self.topology.num_directed_links())
            return self.total_flit_hops / links * self.topology.congestion_factor
        return int(self.slot_flits.max(initial=0))

    def max_endpoint_load(self) -> int:
        """Heaviest injection/ejection flit count over all tiles."""
        return int(max(self.injected_flits.max(), self.ejected_flits.max()))

    def bisection_load(self) -> int:
        """Flits crossing the vertical middle cut (both directions)."""
        if not self.detailed:
            return self._bisection_flits
        return int(self.slot_flits[self.topology.slot_layout().middle_cut].sum())

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
        return self.router_flits.copy()

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
        self.slot_flits += other.slot_flits
        self.router_flits += other.router_flits
        self.injected_flits += other.injected_flits
        self.ejected_flits += other.ejected_flits
        self.total_flit_hops += other.total_flit_hops
        self.total_flit_millimeters += other.total_flit_millimeters
        self.total_messages += other.total_messages
        self._bisection_flits += other._bisection_flits

    def reset(self) -> None:
        """Clear all accumulated traffic."""
        for tally in (self.slot_flits, self.router_flits, self.injected_flits,
                      self.ejected_flits):
            tally.fill(0)
        self.total_flit_hops = 0
        self.total_flit_millimeters = 0.0
        self.total_messages = 0
        self._bisection_flits = 0

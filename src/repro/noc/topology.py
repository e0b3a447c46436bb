"""NoC topologies: 2D mesh/torus (plus ruche channels) and stacked 3D variants.

Routing is dimension-ordered (X then Y, then Z on 3D stacks), matching the
paper's wormhole network.  A route is the ordered list of tiles a message
traverses, including source and destination; the directed links used are the
consecutive pairs of that list.  :meth:`Topology.route_dims` generalizes the
same per-dimension decomposition to arbitrary dimension orders.  Each kind
states its routing once, as :meth:`Topology._dimension_steps`; every route,
distance and slot table derives from it, over any number of dimensions.

Both cycle-engine network models and the analytical link-load model keep
link state in flat arrays indexed by the ``tile * ports + output port`` slots
of :meth:`Topology.slot_layout`.  Every route, of every :mod:`repro.noc.sim`
policy, is walked in closed form from the layout's per-dimension leg table,
with no route cache; :meth:`SlotLayout.endpoints` turns slots back into their
``(tile, next_tile)`` links.

The torus models the paper's folded layout ("consecutive logical tiles at a
distance of two in the silicon"): link length is twice the tile pitch, which the
energy model uses.  Ruche channels are long physical wires that skip
``ruche_factor - 1`` routers in one dimension, increasing bisection bandwidth.
3D stacks (``mesh3d``/``torus3d``) connect ``depth`` silicon layers through
short TSV pillars; vertical hops cost a full router traversal but only a
fraction of a tile pitch in wire length.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

Link = Tuple[int, int]


@dataclass(frozen=True)
class SlotLayout:
    """A topology's directed links numbered ``tile * ports + output port``.

    Every router has one output port per dimension and hop offset: +-1, plus
    +-R on ruche grids.  A minimal route never takes two offsets that land
    on the same neighbour, so each link a route can use has one slot.
    """

    #: Output ports per router: ``len(steps)`` per dimension.
    ports: int
    #: The hop offset of each port within its dimension, in port order.
    steps: Tuple[int, ...]
    #: Per dimension, in routing order: ``(tile stride, size, legs)``, where
    #: ``legs[delta + size - 1]`` lists the ``(offset, port)`` of every hop
    #: that covers a displacement of ``delta``.
    dimensions: Tuple[tuple, ...]
    #: Physical length of every port's links, in tile pitches, in port order.
    lengths: Tuple[float, ...]

    @property
    def num_slots(self) -> int:
        stride, size, _legs = self.dimensions[-1]
        return stride * size * self.ports

    def route(self, src: int, dst: int, dimensions: Optional[Sequence[tuple]] = None) -> List[int]:
        """Slots of the minimal route from ``src`` to ``dst``, in route order.

        ``dimensions`` is :attr:`dimensions` in the order to route them;
        the default, dimension order, gives the links of :meth:`Topology.route`.
        """
        ports = self.ports
        slots = []
        tile = src
        for stride, size, legs in self.dimensions if dimensions is None else dimensions:
            here = tile // stride % size
            base = tile - here * stride
            for step, port in legs[dst // stride % size - here + size - 1]:
                slots.append(tile * ports + port)
                here = (here + step) % size
                tile = base + here * stride
        return slots

    def port_table(self) -> Tuple[np.ndarray, ...]:
        """Per output port, in port order: ``(step, stride, size, length)``."""
        per_dimension = len(self.steps)
        return (
            np.tile(np.asarray(self.steps, dtype=np.int64), len(self.dimensions)),
            np.repeat([stride for stride, _size, _legs in self.dimensions], per_dimension),
            np.repeat([size for _stride, size, _legs in self.dimensions], per_dimension),
            np.asarray(self.lengths, dtype=np.float64),
        )

    def endpoints(self, slots) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(tile, next_tile)`` link of every slot (inverse of the layout)."""
        tiles, ports = np.divmod(np.asarray(slots, dtype=np.int64), self.ports)
        step, stride, size, _length = self.port_table()
        step, stride, size = step[ports], stride[ports], size[ports]
        here = tiles // stride % size
        return tiles, tiles + ((here + step) % size - here) * stride

    def link(self, slot: int) -> Link:
        """The ``(tile, next_tile)`` link one slot names."""
        tiles, next_tiles = self.endpoints([slot])
        return int(tiles[0]), int(next_tiles[0])

    def link_view(self, slot_flits) -> Dict[Link, int]:
        """A per-slot flit tally keyed by link: ``(tile, next_tile) -> flits``
        for every slot that carried traffic."""
        slot_flits = np.asarray(slot_flits, dtype=np.int64)
        used = np.flatnonzero(slot_flits)
        tiles, next_tiles = self.endpoints(used)
        return dict(zip(zip(tiles.tolist(), next_tiles.tolist()), slot_flits[used].tolist()))

    @cached_property
    def middle_cut(self) -> np.ndarray:
        """Per slot: does its link cross the vertical middle cut of the first dimension?"""
        _stride, width, _legs = self.dimensions[0]
        middle = width // 2
        tiles, next_tiles = self.endpoints(np.arange(self.num_slots))
        return (tiles % width < middle) != (next_tiles % width < middle)

    @cached_property
    def cycle_order(self) -> Tuple[np.ndarray, ...]:
        """Every slot's place in a doubled, cycle-ordered copy of the slots.

        Within one row of a dimension, the slots of a port with step ``s``
        follow the port's cycles: coordinates ``r, r + s, r + 2s, ...``
        modulo the dimension's size, one cycle of ``n = size / gcd(|s|,
        size)`` slots per residue ``r < gcd(|s|, size)`` (one cycle of the
        whole row for a unit port).  Every cycle is laid out twice in a row,
        ``2n`` positions, and each port's cycles fill ``2 * num_tiles``
        positions, port after port.  So ``k <= n`` consecutive hops through
        one port -- one leg of a route, wrapping or not -- cover ``k``
        consecutive positions, one per slot.

        Returns ``(first, second, cycle)``: a slot's two positions,
        ``second = first + n``, and ``n`` per port.
        """
        step, stride, size, _length = self.port_table()
        groups = np.array([gcd(a, b) for a, b in zip(step.tolist(), size.tolist())])
        cycle = size // groups
        # The cycle index j of coordinate c solves c = r + j * |s| (mod size).
        inverse = np.array([
            pow(abs(a) // g, -1, n)
            for a, g, n in zip(step.tolist(), groups.tolist(), cycle.tolist())
        ])
        num_tiles = self.num_slots // self.ports
        tiles, ports = np.divmod(np.arange(self.num_slots), self.ports)
        stride, size, groups = stride[ports], size[ports], groups[ports]
        here = tiles // stride % size
        row = tiles // (stride * size) * stride + tiles % stride
        block = row * groups + here % groups
        index = here // groups * inverse[ports] % cycle[ports]
        first = ports * 2 * num_tiles + block * 2 * cycle[ports] + index
        return first, first + cycle[ports], cycle


class Topology(ABC):
    """Base class for tiled topologies of any number of dimensions.

    A tile has one coordinate per dimension of :meth:`dimension_sizes`, in
    routing order, and the first dimension varies fastest: ``tile = y *
    width + x`` on a 2D grid, ``(z * height + y) * width + x`` on a stack.
    Each kind supplies its routing rule, :meth:`_dimension_steps`;
    :meth:`slot_layout` tabulates it, and every scalar route, distance and
    link count below derives from that table or the batched routes.
    """

    kind = "abstract"
    #: Express-channel skip distance; only ruche topologies set a value.
    ruche_factor: Optional[int] = None
    #: True when every dimension has wraparound links.
    wraps = False
    #: Physical wire length per tile of logical displacement (folded torus = 2).
    physical_length_factor = 1.0
    #: Ratio of the hottest link load to the average link load under uniform
    #: random traffic with dimension-ordered routing; used by the sparse
    #: link-load model on very large grids.
    congestion_factor = 1.0

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError("topology dimensions must be positive")
        self.width = width
        self.height = height

    # -------------------------------------------------------------- addressing
    def dimension_sizes(self) -> Tuple[int, ...]:
        """Extent of every dimension, in routing (dimension-order) order."""
        return (self.width, self.height)

    def _dimension_link_tiles(self) -> Tuple[float, ...]:
        """Physical length of a one-tile hop along each dimension, in tile pitches."""
        return (self.physical_length_factor,) * 2

    @property
    def num_tiles(self) -> int:
        return prod(self.dimension_sizes())

    def _check_tiles(self, *tiles: int) -> None:
        num_tiles = self.num_tiles
        for tile in tiles:
            if tile < 0 or tile >= num_tiles:
                raise ConfigurationError(f"tile {tile} out of range")

    def coords(self, tile: int) -> Tuple[int, ...]:
        """Return a tile's coordinates, one per dimension: ``(x, y)`` or ``(x, y, z)``."""
        self._check_tiles(tile)
        coords = []
        for size in self.dimension_sizes():
            tile, coordinate = divmod(tile, size)
            coords.append(coordinate)
        return tuple(coords)

    def tile_at(self, *coords: int) -> int:
        """Return the tile ID at ``coords``, one coordinate per dimension."""
        sizes = self.dimension_sizes()
        if len(coords) != len(sizes) or not all(
            0 <= coordinate < size for coordinate, size in zip(coords, sizes)
        ):
            raise ConfigurationError(f"coordinates {coords} out of range")
        tile = 0
        for coordinate, size in zip(reversed(coords), reversed(sizes)):
            tile = tile * size + coordinate
        return tile

    # ----------------------------------------------------------------- routing
    @abstractmethod
    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        """The routing rule: how every displacement in ``delta`` is covered.

        Returns ``(sign, express, unit)`` arrays: a displacement takes
        ``express`` hops of ``sign * ruche_factor`` followed by ``unit``
        hops of ``sign``.
        """

    def slot_layout(self) -> SlotLayout:
        """The flat (tile, output port) link numbering every network model uses.

        Tabulates :meth:`_dimension_steps` once per dimension over every
        displacement ``1 - size .. size - 1`` -- O(width + height) entries --
        so a route is walked in closed form: hop ``k`` of a dimension leaves
        the tile reached so far through the port of that leg's offset.
        Built once per topology.
        """
        layout = self.__dict__.get("_slot_layout")
        if layout is not None:
            return layout
        express_step = self.ruche_factor or 0
        steps = (1, -1, express_step, -express_step) if express_step else (1, -1)
        dimensions, lengths = [], []
        stride = 1
        for dim, (size, link_tiles) in enumerate(
            zip(self.dimension_sizes(), self._dimension_link_tiles())
        ):
            sign, express, unit = (
                column.tolist()
                for column in self._dimension_steps(np.arange(1 - size, size), size)
            )
            # Port order within a dimension: +1, -1, +R, -R.
            port = dim * len(steps)
            legs = [
                ((s * express_step, port + 2 + (s < 0)),) * e + ((s, port + (s < 0)),) * u
                for s, e, u in zip(sign, express, unit)
            ]
            dimensions.append((stride, size, legs))
            lengths.extend(link_tiles * abs(step) for step in steps)
            stride *= size
        layout = SlotLayout(len(steps) * len(dimensions), steps, tuple(dimensions), tuple(lengths))
        self._slot_layout = layout
        return layout

    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-ordered (X, then Y, then Z) route from ``src`` to ``dst`` inclusive."""
        return self.route_dims(src, dst, range(len(self.dimension_sizes())))

    def route_dims(self, src: int, dst: int, dim_order: Sequence[int]) -> List[int]:
        """Minimal route visiting dimensions in ``dim_order`` (e.g. Y before X).

        ``dim_order`` orders every dimension once: ``route_dims(src, dst,
        (0, 1))`` reproduces :meth:`route` on a 2D grid, and ``(1, 0)`` is
        the Y-first route the oblivious XY/YX routing policy gives
        odd-numbered messages.
        """
        self._check_tiles(src, dst)
        layout = self.slot_layout()
        slots = layout.route(src, dst, [layout.dimensions[dim] for dim in dim_order])
        return [slot // layout.ports for slot in slots] + [dst]

    def _route_hops(self, src: int, dst: int) -> List[tuple]:
        """Per dimension, in routing order: the ``(offset, port)`` of every
        hop of the route from ``src`` to ``dst``."""
        self._check_tiles(src, dst)
        return [
            legs[dst // stride % size - src // stride % size + size - 1]
            for stride, size, legs in self.slot_layout().dimensions
        ]

    def hop_distance(self, src: int, dst: int) -> int:
        """Number of router-to-router hops between two tiles."""
        return sum(map(len, self._route_hops(src, dst)))

    def route_span_tiles(self, src: int, dst: int) -> float:
        """Physical wire length (in tile pitches) traveled from ``src`` to ``dst``."""
        lengths = self.slot_layout().lengths
        return sum(
            (lengths[port] for hops in self._route_hops(src, dst) for _step, port in hops),
            0.0,
        )

    def links_on_route(self, src: int, dst: int) -> List[Link]:
        """Directed links traversed by a message from ``src`` to ``dst``."""
        path = self.route(src, dst)
        return list(zip(path[:-1], path[1:]))

    def route_profile(self, src: int, dst: int) -> tuple:
        """``(slots, lengths)`` of the dimension-ordered route, walked per call.

        ``slots`` names every link of :meth:`links_on_route`, in route
        order, by its :meth:`slot_layout` slot; ``lengths`` holds each
        link's physical length in tile pitches.  Only the per-message
        reference path (:meth:`LinkLoadModel.record_message
        <repro.noc.analytical.LinkLoadModel.record_message>`) reads it;
        batches of messages route as legs (:meth:`_route_legs`).
        """
        self._check_tiles(src, dst)
        layout = self.slot_layout()
        slots = layout.route(src, dst)
        ports = layout.ports
        return slots, [layout.lengths[slot % ports] for slot in slots]

    # --------------------------------------------------------- batched routing
    # Closed-form routes for arrays of messages: no route walk and no cache.
    # Hop counts, spans, link codes and link lengths all derive from
    # :meth:`_dimension_steps`.

    def _batch_dimensions(self, srcs: np.ndarray, dsts: np.ndarray) -> Iterator[tuple]:
        """Per dimension, in routing order: ``(stride, size, src coordinate,
        sign, express, unit)``, the last four with one entry per message."""
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        stride = 1
        for size in self.dimension_sizes():
            src_c = srcs // stride % size
            yield (stride, size, src_c) + self._dimension_steps(
                dsts // stride % size - src_c, size
            )
            stride *= size

    def hop_distance_batch(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hop_distance`."""
        hops = np.zeros(len(srcs), dtype=np.int64)
        for *_, express, unit in self._batch_dimensions(srcs, dsts):
            hops += express + unit
        return hops

    def route_span_tiles_batch(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`route_span_tiles`."""
        express_tiles = self.ruche_factor or 1
        span = np.zeros(len(srcs), dtype=np.float64)
        for (*_, express, unit), link_tiles in zip(
            self._batch_dimensions(srcs, dsts), self._dimension_link_tiles()
        ):
            span += (express * express_tiles + unit) * link_tiles
        return span

    def _route_legs(self, srcs: np.ndarray, dsts: np.ndarray) -> Tuple[np.ndarray, ...]:
        """A batch's routes as legs: runs of hops through one output port.

        Every dimension contributes an express leg (ruche grids only), then
        a unit leg, so a message's legs in order are its route.  Returns
        flat per-leg arrays, message by message: ``(hops, tiles, ports)``.
        A leg leaves ``tiles`` through the :meth:`slot_layout` port
        ``ports`` and takes ``hops`` hops of that port's step, all through
        the same port; the layout's :meth:`~SlotLayout.port_table` holds
        each port's step, dimension and link length.
        """
        express_step = self.ruche_factor
        per_dimension = 4 if express_step else 2
        tile = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        legs = []
        for dim, (stride, size, src_c, sign, express, unit) in enumerate(
            self._batch_dimensions(tile, dsts)
        ):
            base = tile - src_c * stride
            # Port order within a dimension: +1, -1, +R, -R.
            port = dim * per_dimension + (sign < 0)
            if express_step:
                legs.append((express, tile, port + 2))
                tile = base + (src_c + express * sign * express_step) % size * stride
            legs.append((unit, tile, port))
            tile = base + dsts // stride % size * stride
        return tuple(np.stack(column, axis=1).reshape(-1) for column in zip(*legs))

    def route_link_codes(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every message's route as directed-link codes, with each link's length.

        Returns ``(codes, lengths)``, both message by message in route order:
        ``codes`` concatenates :meth:`links_on_route` as ``link_src *
        num_tiles + link_dst`` and ``lengths`` holds each of those links'
        physical length in tile pitches.  Batches are charged leg by leg
        (:meth:`_route_legs`) and never expand their hops this way; the
        tests use this expansion as a per-link reference.
        """
        hops, tiles, ports = self._route_legs(srcs, dsts)
        layout = self.slot_layout()
        step, stride, size, length = layout.port_table()
        leg = np.repeat(np.arange(len(hops)), hops)
        offset = np.arange(len(leg)) - (np.cumsum(hops) - hops)[leg]
        tiles, ports = tiles[leg], ports[leg]
        step, stride, size = step[ports], stride[ports], size[ports]
        here = tiles // stride % size
        hop_tiles = tiles + ((here + offset * step) % size - here) * stride
        link_src, link_dst = layout.endpoints(hop_tiles * layout.ports + ports)
        return link_src * self.num_tiles + link_dst, length[ports]

    # ------------------------------------------------------------------- links
    def _unit_steps(self, size: int) -> List[int]:
        """Offsets of the links that leave a router along a dimension of ``size``."""
        return [step for step in self.slot_layout().steps if abs(step) < size]

    def neighbors(self, tile: int) -> List[int]:
        """Tiles directly reachable from ``tile`` over one link."""
        result = set()
        stride = 1
        for here, size in zip(self.coords(tile), self.dimension_sizes()):
            for step in self._unit_steps(size):
                if self.wraps or 0 <= here + step < size:
                    result.add(tile + ((here + step) % size - here) * stride)
            stride *= size
        return sorted(result - {tile})

    def links(self) -> Iterator[Link]:
        """All directed links of the topology."""
        for tile in range(self.num_tiles):
            for neighbor in self.neighbors(tile):
                yield tile, neighbor

    def num_directed_links(self) -> int:
        """Total number of directed router-to-router links, in closed form:
        ``sum(1 for _ in links())`` without enumerating them."""
        total = 0
        for size in self.dimension_sizes():
            steps = self._unit_steps(size)
            # Per row of a dimension: one link per distinct wrapped offset
            # and tile, or every in-range hop of every offset.
            row = (size * len({step % size for step in steps}) if self.wraps
                   else sum(size - abs(step) for step in steps))
            total += self.num_tiles // size * row
        return total

    def bisection_links(self) -> int:
        """Number of directed links crossing a vertical cut through the middle.

        One per row (of every layer) and direction; wraparound doubles it.
        """
        return (4 if self.wraps else 2) * (self.num_tiles // self.width)

    def average_hop_distance(self, sample: int = 256) -> float:
        """Average hop count over a deterministic sample of tile pairs."""
        stride = max(1, self.num_tiles // max(1, int(sample ** 0.5)))
        tiles = np.arange(0, self.num_tiles, stride)
        hops = self.hop_distance_batch(np.repeat(tiles, len(tiles)), np.tile(tiles, len(tiles)))
        return int(hops.sum()) / len(hops)

    def diameter(self) -> int:
        """Maximum hop distance between any two tiles (computed per-dimension)."""
        return sum(max(map(len, legs)) for _stride, _size, legs in self.slot_layout().dimensions)

    # --------------------------------------------------------------- identity
    def signature(self) -> Tuple:
        """Value identity of this topology: kind, grid shape and ruche factor."""
        return (self.kind, *self.dimension_sizes(), self.ruche_factor)

    def same_grid(self, other: "Topology") -> bool:
        """True when ``other`` describes the identical network."""
        return self.signature() == other.signature()

    def describe(self) -> str:
        """Short human-readable identity used in error messages."""
        suffix = f" (ruche={self.ruche_factor})" if self.ruche_factor is not None else ""
        return f"{self.kind} {'x'.join(map(str, self.dimension_sizes()))}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({'x'.join(map(str, self.dimension_sizes()))})"


class _MeshRouting:
    """Per-dimension routing of a mesh: unit hops, no wraparound."""

    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        return np.where(delta > 0, 1, -1), np.zeros_like(delta), np.abs(delta)


class _TorusRouting:
    """Per-dimension routing of a torus: unit hops the shorter way round."""

    wraps = True

    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        forward = delta % size
        backward = size - forward
        ahead = forward <= backward
        return (np.where(ahead, 1, -1), np.zeros_like(delta),
                np.where(ahead, forward, backward))


class Mesh2D(_MeshRouting, Topology):
    """Plain 2D mesh with nearest-neighbour links and no wraparound."""

    kind = "mesh"
    physical_length_factor = 1.0
    # Dimension-ordered routing concentrates traffic on the central columns/rows.
    congestion_factor = 2.0


class Torus2D(_TorusRouting, Topology):
    """2D torus with wraparound links and shortest-direction dimension routing.

    The paper notes a 32-bit 2D torus is ~50% larger than a mesh but doubles the
    bisection bandwidth; the folded physical layout makes every link span two
    tile pitches.
    """

    kind = "torus"
    physical_length_factor = 2.0
    congestion_factor = 1.25


class RucheTorus2D(Torus2D):
    """Torus augmented with ruche (express) channels of a configurable factor.

    A ruche factor ``R`` adds physical links that skip ``R - 1`` routers in each
    dimension.  Routing greedily uses express hops and finishes with unit hops.
    """

    kind = "torus_ruche"

    congestion_factor = 1.1

    def __init__(self, width: int, height: int, ruche_factor: int = 2) -> None:
        super().__init__(width, height)
        if ruche_factor < 2:
            raise ConfigurationError("ruche factor must be at least 2")
        self.ruche_factor = ruche_factor

    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        sign, _express, distance = super()._dimension_steps(delta, size)
        return sign, distance // self.ruche_factor, distance % self.ruche_factor

    def bisection_links(self) -> int:
        # Express channels crossing the cut add (R - 1) links per row/direction.
        return 4 * self.height + 4 * self.height * (self.ruche_factor - 1)


class Topology3D(Topology):
    """Base for stacked topologies addressed as ``tile = (z * height + y) * width + x``.

    Each of the ``depth`` silicon layers is a ``width x height`` grid;
    vertical links are through-silicon-via (TSV) pillars between vertically
    adjacent routers.  Routing is dimension-ordered X, then Y, then Z.
    Vertical hops cost a full router traversal (they go through the same
    switch) but only :attr:`via_length_tiles` of a tile pitch in wire length
    -- TSVs are far shorter than in-plane links.
    """

    #: Physical length of one vertical (TSV) hop, in tile pitches.
    via_length_tiles = 0.25

    def __init__(self, width: int, height: int, depth: int) -> None:
        super().__init__(width, height)
        if depth < 1:
            raise ConfigurationError("topology depth must be positive")
        self.depth = depth

    def dimension_sizes(self) -> Tuple[int, ...]:
        return (self.width, self.height, self.depth)

    def _dimension_link_tiles(self) -> Tuple[float, ...]:
        return (self.physical_length_factor,) * 2 + (self.via_length_tiles,)


class Mesh3D(_MeshRouting, Topology3D):
    """Stacked 3D mesh: nearest-neighbour links, no wraparound in any dimension."""

    kind = "mesh3d"
    physical_length_factor = 1.0
    congestion_factor = 2.0


class Torus3D(_TorusRouting, Topology3D):
    """Stacked 3D torus: shortest-direction wraparound in all three dimensions.

    In-plane links follow the folded-torus layout (two tile pitches each);
    vertical wrap links reuse the TSV pillars, so a Z wrap costs the same via
    length as a unit Z hop.
    """

    kind = "torus3d"
    physical_length_factor = 2.0
    congestion_factor = 1.25


_TOPOLOGY_KINDS = {
    "mesh": Mesh2D,
    "torus": Torus2D,
    "torus_ruche": RucheTorus2D,
    "mesh3d": Mesh3D,
    "torus3d": Torus3D,
}

#: Kinds that accept (and route over) a depth dimension.
TOPOLOGY_3D_KINDS = ("mesh3d", "torus3d")


def make_topology(
    kind: str, width: int, height: int, ruche_factor: int = 2, depth: int = 1
) -> Topology:
    """Factory for topologies by name (``mesh``, ``torus``, ``torus_ruche``,
    ``mesh3d``, ``torus3d``); ``depth`` only applies to the 3D kinds."""
    key = kind.strip().lower()
    if key not in _TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"unknown NoC kind {kind!r}; expected one of {sorted(_TOPOLOGY_KINDS)}"
        )
    if key in TOPOLOGY_3D_KINDS:
        return _TOPOLOGY_KINDS[key](width, height, depth)
    if depth != 1:
        raise ConfigurationError(
            f"NoC kind {kind!r} is two-dimensional; depth={depth} requires one "
            f"of {TOPOLOGY_3D_KINDS}"
        )
    if key == "torus_ruche":
        return RucheTorus2D(width, height, ruche_factor=ruche_factor)
    return _TOPOLOGY_KINDS[key](width, height)


@lru_cache(maxsize=64)
def cached_topology(
    kind: str, width: int, height: int, ruche_factor: int = 2, depth: int = 1
) -> Topology:
    """Memoized topology construction (topologies are immutable)."""
    return make_topology(kind, width, height, ruche_factor, depth)

"""NoC topologies: 2D mesh/torus (plus ruche channels) and stacked 3D variants.

Routing is dimension-ordered (X then Y, then Z on 3D stacks), matching the
paper's wormhole network.  A route is the ordered list of tiles a message
traverses, including source and destination; the directed links used are the
consecutive pairs of that list.  :meth:`Topology.route_dims` generalizes the
same per-dimension decomposition to arbitrary dimension orders.

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
from math import gcd
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
    """Base class for 2D tiled topologies addressed as ``tile = y * width + x``."""

    kind = "abstract"
    #: Express-channel skip distance; only ruche topologies set a value.
    ruche_factor: Optional[int] = None

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError("topology dimensions must be positive")
        self.width = width
        self.height = height

    # -------------------------------------------------------------- addressing
    @property
    def num_tiles(self) -> int:
        return self.width * self.height

    def coords(self, tile: int) -> Tuple[int, int]:
        """Return ``(x, y)`` coordinates of a tile ID."""
        if tile < 0 or tile >= self.num_tiles:
            raise ConfigurationError(f"tile {tile} out of range")
        return tile % self.width, tile // self.width

    def tile_at(self, x: int, y: int) -> int:
        """Return the tile ID at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigurationError(f"coordinates ({x}, {y}) out of range")
        return y * self.width + x

    # -------------------------------------------------------- n-d addressing
    def dimension_sizes(self) -> Tuple[int, ...]:
        """Extent of every dimension, in routing (dimension-order) order."""
        return (self.width, self.height)

    def coords_nd(self, tile: int) -> Tuple[int, ...]:
        """Tile coordinates as a tuple with one entry per dimension."""
        return self.coords(tile)

    def tile_from_nd(self, coords: Tuple[int, ...]) -> int:
        """Inverse of :meth:`coords_nd`."""
        return self.tile_at(*coords)

    # ----------------------------------------------------------------- routing
    @abstractmethod
    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        """Decompose a 1D displacement into a sequence of per-hop offsets."""

    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-ordered (X then Y) route from ``src`` to ``dst`` inclusive."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        x, y = sx, sy
        for step in self.next_hop_offsets(dx - sx, self.width):
            x = (x + step) % self.width
            path.append(self.tile_at(x, y))
        for step in self.next_hop_offsets(dy - sy, self.height):
            y = (y + step) % self.height
            path.append(self.tile_at(x, y))
        return path

    def route_dims(self, src: int, dst: int, dim_order: Tuple[int, ...]) -> List[int]:
        """Minimal route visiting dimensions in ``dim_order`` (e.g. Y before X).

        ``route_dims(src, dst, (0, 1))`` reproduces :meth:`route` exactly;
        ``(1, 0)`` is the Y-first route the oblivious XY/YX routing policy
        gives odd-numbered messages.
        """
        sizes = self.dimension_sizes()
        cur = list(self.coords_nd(src))
        target = self.coords_nd(dst)
        path = [src]
        for dim in dim_order:
            for step in self.next_hop_offsets(target[dim] - cur[dim], sizes[dim]):
                cur[dim] = (cur[dim] + step) % sizes[dim]
                path.append(self.tile_from_nd(tuple(cur)))
        return path

    def slot_layout(self) -> SlotLayout:
        """The flat (tile, output port) link numbering every network model uses.

        Tabulates :meth:`next_hop_offsets` once per dimension and
        displacement -- O(width + height) entries -- so a route is walked in
        closed form: hop ``k`` of a dimension leaves the tile reached so far
        through the port of that leg's offset.  Built once per topology.
        """
        layout = self.__dict__.get("_slot_layout")
        if layout is not None:
            return layout
        express = self.ruche_factor
        steps = (1, -1, express, -express) if express else (1, -1)
        dimensions, lengths = [], []
        stride = 1
        for dim, (size, link_tiles) in enumerate(
            zip(self.dimension_sizes(), self._dimension_link_tiles())
        ):
            port = {step: dim * len(steps) + index for index, step in enumerate(steps)}
            legs = [
                tuple((step, port[step]) for step in self.next_hop_offsets(delta, size))
                for delta in range(1 - size, size)
            ]
            dimensions.append((stride, size, legs))
            lengths.extend(link_tiles * abs(step) for step in steps)
            stride *= size
        layout = SlotLayout(len(steps) * len(dimensions), steps, tuple(dimensions), tuple(lengths))
        self._slot_layout = layout
        return layout

    def hop_distance(self, src: int, dst: int) -> int:
        """Number of router-to-router hops between two tiles (O(1) arithmetic)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return self._dimension_hops(dx - sx, self.width) + self._dimension_hops(
            dy - sy, self.height
        )

    def _dimension_hops(self, delta: int, size: int) -> int:
        """Hop count along one dimension; subclasses override for O(1) math."""
        return len(self.next_hop_offsets(delta, size))

    def _dimension_span(self, delta: int, size: int) -> int:
        """Tile-pitch distance traveled along one dimension (before folding)."""
        return abs(delta)

    def route_span_tiles(self, src: int, dst: int) -> float:
        """Physical wire length (in tile pitches) traveled from ``src`` to ``dst``."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        span = self._dimension_span(dx - sx, self.width) + self._dimension_span(
            dy - sy, self.height
        )
        return span * self.physical_length_factor

    #: Physical wire length per tile of logical displacement (folded torus = 2).
    physical_length_factor = 1.0

    #: Ratio of the hottest link load to the average link load under uniform
    #: random traffic with dimension-ordered routing; used by the sparse
    #: link-load model on very large grids.
    congestion_factor = 1.0

    def num_directed_links(self) -> int:
        """Total number of directed router-to-router links, in closed form:
        ``sum(1 for _ in links())`` without enumerating them."""
        return sum(
            self.num_tiles // size * self._dimension_links(size)
            for size in self.dimension_sizes()
        )

    def _dimension_links(self, size: int) -> int:
        """Directed links along one row of ``size`` tiles (wraparound kinds)."""
        return size * len({step % size for step in self._unit_steps(size)} - {0})

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
        layout = self.slot_layout()
        slots = layout.route(src, dst)
        ports = layout.ports
        return slots, [layout.lengths[slot % ports] for slot in slots]

    # --------------------------------------------------------- batched routing
    # Closed-form routes for arrays of messages: no route walk and no cache.
    # Every kind supplies one hook, :meth:`_dimension_steps`; hop counts,
    # spans, link codes and link lengths all derive from it.

    @abstractmethod
    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        """:meth:`next_hop_offsets` of every displacement in ``delta``, as counts.

        Returns ``(sign, express, unit)`` arrays: the offsets are ``express``
        hops of ``sign * ruche_factor`` followed by ``unit`` hops of ``sign``.
        """

    def _dimension_link_tiles(self) -> Tuple[float, ...]:
        """Physical length of a one-tile hop along each dimension, in tile pitches."""
        return (self.physical_length_factor,) * 2

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
        num_tiles + link_dst`` and ``lengths`` holds the
        :meth:`link_length_tiles` of each of those links.  Batches are
        charged leg by leg (:meth:`_route_legs`) and never expand their
        hops this way; the tests use this expansion as a per-link reference.
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

    def links(self) -> Iterator[Link]:
        """All directed links of the topology."""
        seen = set()
        for tile in range(self.num_tiles):
            for neighbor in self.neighbors(tile):
                link = (tile, neighbor)
                if link not in seen:
                    seen.add(link)
                    yield link

    def neighbors(self, tile: int) -> List[int]:
        """Tiles directly reachable from ``tile`` over one link."""
        x, y = self.coords(tile)
        result = []
        for step in self._unit_steps(self.width):
            result.append(self.tile_at((x + step) % self.width, y))
        for step in self._unit_steps(self.height):
            result.append(self.tile_at(x, (y + step) % self.height))
        return sorted(set(result) - {tile})

    @abstractmethod
    def _unit_steps(self, size: int) -> List[int]:
        """Offsets reachable in one hop along one dimension."""

    # -------------------------------------------------------------- properties
    @abstractmethod
    def bisection_links(self) -> int:
        """Number of directed links crossing a vertical cut through the middle."""

    @abstractmethod
    def link_length_tiles(self, src: int, dst: int) -> float:
        """Physical length of the ``src -> dst`` link, in tile pitches."""

    @property
    @abstractmethod
    def area_factor(self) -> float:
        """Router+wiring area relative to a plain 2D mesh (mesh == 1.0)."""

    def average_hop_distance(self, sample: int = 256) -> float:
        """Average hop count over a deterministic sample of tile pairs."""
        total = 0
        count = 0
        stride = max(1, self.num_tiles // max(1, int(sample ** 0.5)))
        for src in range(0, self.num_tiles, stride):
            for dst in range(0, self.num_tiles, stride):
                total += self.hop_distance(src, dst)
                count += 1
        return total / count if count else 0.0

    def diameter(self) -> int:
        """Maximum hop distance between any two tiles (computed per-dimension)."""
        worst_x = max(
            len(self.next_hop_offsets(d, self.width)) for d in range(self.width)
        )
        worst_y = max(
            len(self.next_hop_offsets(d, self.height)) for d in range(self.height)
        )
        return worst_x + worst_y

    # --------------------------------------------------------------- identity
    def signature(self) -> Tuple:
        """Value identity of this topology: kind, grid shape and ruche factor."""
        return (self.kind, self.width, self.height, self.ruche_factor)

    def same_grid(self, other: "Topology") -> bool:
        """True when ``other`` describes the identical network."""
        return self.signature() == other.signature()

    def describe(self) -> str:
        """Short human-readable identity used in error messages."""
        kind, width, height, ruche = self.signature()
        suffix = f" (ruche={ruche})" if ruche is not None else ""
        return f"{kind} {width}x{height}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.width}x{self.height})"


class _MeshRouting:
    """Per-dimension routing of a mesh: unit hops, no wraparound."""

    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        step = 1 if delta > 0 else -1
        return [step] * abs(delta)

    def _dimension_hops(self, delta: int, size: int) -> int:
        return abs(delta)

    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        return np.where(delta > 0, 1, -1), np.zeros_like(delta), np.abs(delta)

    def _unit_steps(self, size: int) -> List[int]:
        return [-1, 1] if size > 1 else []

    def _dimension_links(self, size: int) -> int:
        return 2 * (size - 1)


class _TorusRouting:
    """Per-dimension routing of a torus: unit hops the shorter way round."""

    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        if size <= 1 or delta == 0:
            return []
        forward = delta % size
        backward = size - forward
        if forward <= backward:
            return [1] * forward
        return [-1] * backward

    def _dimension_hops(self, delta: int, size: int) -> int:
        if size <= 1 or delta == 0:
            return 0
        forward = delta % size
        return min(forward, size - forward)

    def _dimension_span(self, delta: int, size: int) -> int:
        return self._dimension_hops(delta, size)

    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        forward = delta % size
        backward = size - forward
        ahead = forward <= backward
        return (np.where(ahead, 1, -1), np.zeros_like(delta),
                np.where(ahead, forward, backward))

    def _unit_steps(self, size: int) -> List[int]:
        return [-1, 1] if size > 1 else []


class Mesh2D(_MeshRouting, Topology):
    """Plain 2D mesh with nearest-neighbour links and no wraparound."""

    kind = "mesh"
    area_factor = 1.0
    physical_length_factor = 1.0
    # Dimension-ordered routing concentrates traffic on the central columns/rows.
    congestion_factor = 2.0

    def neighbors(self, tile: int) -> List[int]:
        x, y = self.coords(tile)
        result = []
        if x > 0:
            result.append(self.tile_at(x - 1, y))
        if x + 1 < self.width:
            result.append(self.tile_at(x + 1, y))
        if y > 0:
            result.append(self.tile_at(x, y - 1))
        if y + 1 < self.height:
            result.append(self.tile_at(x, y + 1))
        return result

    def bisection_links(self) -> int:
        # Directed links crossing the vertical middle cut, both directions.
        return 2 * self.height

    def link_length_tiles(self, src: int, dst: int) -> float:
        return 1.0


class Torus2D(_TorusRouting, Topology):
    """2D torus with wraparound links and shortest-direction dimension routing.

    The paper notes a 32-bit 2D torus is ~50% larger than a mesh but doubles the
    bisection bandwidth; the folded physical layout makes every link span two
    tile pitches.
    """

    kind = "torus"
    area_factor = 1.5
    physical_length_factor = 2.0
    congestion_factor = 1.25

    def bisection_links(self) -> int:
        # Wraparound doubles the number of links crossing the middle cut.
        return 4 * self.height

    def link_length_tiles(self, src: int, dst: int) -> float:
        # Folded torus layout: every link spans two tile pitches.
        return 2.0


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

    def _dimension_hops(self, delta: int, size: int) -> int:
        if size <= 1 or delta == 0:
            return 0
        forward = delta % size
        distance = min(forward, size - forward)
        return distance // self.ruche_factor + distance % self.ruche_factor

    def _dimension_span(self, delta: int, size: int) -> int:
        if size <= 1 or delta == 0:
            return 0
        forward = delta % size
        return min(forward, size - forward)

    def _dimension_steps(self, delta: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
        sign, _express, distance = super()._dimension_steps(delta, size)
        return sign, distance // self.ruche_factor, distance % self.ruche_factor

    @property
    def area_factor(self) -> float:
        # The paper reports the ruche-torus NoC uses more than twice the area of
        # a regular torus (1.2% vs 0.2% of chip area in their configuration).
        return 1.5 * (1.0 + self.ruche_factor)

    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        if size <= 1 or delta == 0:
            return []
        forward = delta % size
        backward = size - forward
        distance, sign = (forward, 1) if forward <= backward else (backward, -1)
        hops: List[int] = []
        remaining = distance
        while remaining >= self.ruche_factor:
            hops.append(sign * self.ruche_factor)
            remaining -= self.ruche_factor
        hops.extend([sign] * remaining)
        return hops

    def _unit_steps(self, size: int) -> List[int]:
        steps = [-1, 1]
        if size > self.ruche_factor:
            steps.extend([-self.ruche_factor, self.ruche_factor])
        return steps

    def bisection_links(self) -> int:
        # Express channels crossing the cut add (R - 1) links per row/direction.
        return 4 * self.height + 4 * self.height * (self.ruche_factor - 1)

    def link_length_tiles(self, src: int, dst: int) -> float:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        span_x = min(abs(dx - sx), self.width - abs(dx - sx))
        span_y = min(abs(dy - sy), self.height - abs(dy - sy))
        span = max(span_x, span_y, 1)
        return 2.0 * span


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

    # -------------------------------------------------------------- addressing
    @property
    def num_tiles(self) -> int:
        return self.width * self.height * self.depth

    def coords(self, tile: int) -> Tuple[int, int, int]:
        """Return ``(x, y, z)`` coordinates of a tile ID."""
        if tile < 0 or tile >= self.num_tiles:
            raise ConfigurationError(f"tile {tile} out of range")
        layer = self.width * self.height
        z, rest = divmod(tile, layer)
        return rest % self.width, rest // self.width, z

    def tile_at(self, x: int, y: int, z: int = 0) -> int:
        """Return the tile ID at coordinates ``(x, y, z)``."""
        if not (0 <= x < self.width and 0 <= y < self.height and 0 <= z < self.depth):
            raise ConfigurationError(f"coordinates ({x}, {y}, {z}) out of range")
        return (z * self.height + y) * self.width + x

    def dimension_sizes(self) -> Tuple[int, ...]:
        return (self.width, self.height, self.depth)

    # ----------------------------------------------------------------- routing
    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-ordered (X, then Y, then Z) route, inclusive."""
        return self.route_dims(src, dst, (0, 1, 2))

    def hop_distance(self, src: int, dst: int) -> int:
        src_c = self.coords(src)
        dst_c = self.coords(dst)
        return sum(
            self._dimension_hops(dst_c[dim] - src_c[dim], size)
            for dim, size in enumerate(self.dimension_sizes())
        )

    def route_span_tiles(self, src: int, dst: int) -> float:
        src_c = self.coords(src)
        dst_c = self.coords(dst)
        horizontal = sum(
            self._dimension_span(dst_c[dim] - src_c[dim], size)
            for dim, size in ((0, self.width), (1, self.height))
        )
        vertical = self._dimension_span(dst_c[2] - src_c[2], self.depth)
        return horizontal * self.physical_length_factor + vertical * self.via_length_tiles

    def neighbors(self, tile: int) -> List[int]:
        x, y, z = self.coords(tile)
        result = set()
        for step in self._unit_steps(self.width):
            result.add(self.tile_at((x + step) % self.width, y, z))
        for step in self._unit_steps(self.height):
            result.add(self.tile_at(x, (y + step) % self.height, z))
        for step in self._unit_steps(self.depth):
            result.add(self.tile_at(x, y, (z + step) % self.depth))
        return sorted(result - {tile})

    def diameter(self) -> int:
        return sum(
            max(len(self.next_hop_offsets(d, size)) for d in range(size))
            for size in self.dimension_sizes()
        )

    # -------------------------------------------------------------- properties
    def bisection_links(self) -> int:
        # The vertical middle cut through X is crossed once per (row, layer)
        # pair per direction; wraparound (torus) doubles it.
        per_row = 4 if self.wraps else 2
        return per_row * self.height * self.depth

    #: True when dimensions have wraparound links (set by subclasses).
    wraps = False

    def link_length_tiles(self, src: int, dst: int) -> float:
        if self.coords(src)[2] != self.coords(dst)[2]:
            return self.via_length_tiles
        return self.physical_length_factor

    def _dimension_link_tiles(self) -> Tuple[float, ...]:
        return (self.physical_length_factor,) * 2 + (self.via_length_tiles,)

    # --------------------------------------------------------------- identity
    def signature(self) -> Tuple:
        return (self.kind, self.width, self.height, self.depth, self.ruche_factor)

    def describe(self) -> str:
        return f"{self.kind} {self.width}x{self.height}x{self.depth}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.width}x{self.height}x{self.depth})"


class Mesh3D(_MeshRouting, Topology3D):
    """Stacked 3D mesh: nearest-neighbour links, no wraparound in any dimension."""

    kind = "mesh3d"
    physical_length_factor = 1.0
    # One extra router port pair for the vertical dimension.
    area_factor = 1.2
    congestion_factor = 2.0
    wraps = False

    def neighbors(self, tile: int) -> List[int]:
        x, y, z = self.coords(tile)
        result = []
        if x > 0:
            result.append(self.tile_at(x - 1, y, z))
        if x + 1 < self.width:
            result.append(self.tile_at(x + 1, y, z))
        if y > 0:
            result.append(self.tile_at(x, y - 1, z))
        if y + 1 < self.height:
            result.append(self.tile_at(x, y + 1, z))
        if z > 0:
            result.append(self.tile_at(x, y, z - 1))
        if z + 1 < self.depth:
            result.append(self.tile_at(x, y, z + 1))
        return result


class Torus3D(_TorusRouting, Topology3D):
    """Stacked 3D torus: shortest-direction wraparound in all three dimensions.

    In-plane links follow the folded-torus layout (two tile pitches each);
    vertical wrap links reuse the TSV pillars, so a Z wrap costs the same via
    length as a unit Z hop.
    """

    kind = "torus3d"
    physical_length_factor = 2.0
    area_factor = 1.7
    congestion_factor = 1.25
    wraps = True


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

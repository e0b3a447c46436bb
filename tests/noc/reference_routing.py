"""Reference routing: the per-kind greedy decompositions, kept as a test oracle.

``repro.noc.topology`` defines each kind's routing once, as the batched
``_dimension_steps`` counts, and derives every route, distance and slot
table from them.  This module keeps the scalar decompositions those counts
replaced -- mesh, torus and ruche ``next_hop_offsets``, verbatim -- plus a
route walk over them, the per-kind link lengths and the slot layout's leg
table, so the tests compare the production routes against rules written
independently of ``_dimension_steps``.
"""

from typing import List, Sequence, Tuple

from repro.noc.topology import Topology

Link = Tuple[int, int]


# ------------------------------------------------- per-kind decompositions
# A 1D displacement ``delta`` along a dimension of ``size`` tiles, as the
# ordered offsets of its hops.


def mesh_next_hop_offsets(delta: int, size: int) -> List[int]:
    step = 1 if delta > 0 else -1
    return [step] * abs(delta)


def torus_next_hop_offsets(delta: int, size: int) -> List[int]:
    if size <= 1 or delta == 0:
        return []
    forward = delta % size
    backward = size - forward
    if forward <= backward:
        return [1] * forward
    return [-1] * backward


def ruche_next_hop_offsets(delta: int, size: int, ruche_factor: int) -> List[int]:
    if size <= 1 or delta == 0:
        return []
    forward = delta % size
    backward = size - forward
    distance, sign = (forward, 1) if forward <= backward else (backward, -1)
    hops: List[int] = []
    remaining = distance
    while remaining >= ruche_factor:
        hops.append(sign * ruche_factor)
        remaining -= ruche_factor
    hops.extend([sign] * remaining)
    return hops


def next_hop_offsets(topology: Topology, delta: int, size: int) -> List[int]:
    """The decomposition of ``topology``'s kind."""
    if topology.kind == "torus_ruche":
        return ruche_next_hop_offsets(delta, size, topology.ruche_factor)
    if topology.kind in ("torus", "torus3d"):
        return torus_next_hop_offsets(delta, size)
    assert topology.kind in ("mesh", "mesh3d"), topology.kind
    return mesh_next_hop_offsets(delta, size)


# ---------------------------------------------------------------- addressing
# The first dimension varies fastest: tile = (z * height + y) * width + x.


def coords(topology: Topology, tile: int) -> Tuple[int, ...]:
    result = []
    for size in topology.dimension_sizes():
        tile, coordinate = divmod(tile, size)
        result.append(coordinate)
    return tuple(result)


def tile_at(topology: Topology, coordinates: Sequence[int]) -> int:
    tile, stride = 0, 1
    for coordinate, size in zip(coordinates, topology.dimension_sizes()):
        tile += coordinate * stride
        stride *= size
    return tile


# -------------------------------------------------------------------- routes


def route(topology: Topology, src: int, dst: int, dim_order: Sequence[int] = None) -> List[int]:
    """Tiles of the minimal route visiting dimensions in ``dim_order``
    (default: dimension order), ``src`` and ``dst`` inclusive."""
    sizes = topology.dimension_sizes()
    if dim_order is None:
        dim_order = range(len(sizes))
    cur = list(coords(topology, src))
    target = coords(topology, dst)
    path = [src]
    for dim in dim_order:
        for step in next_hop_offsets(topology, target[dim] - cur[dim], sizes[dim]):
            cur[dim] = (cur[dim] + step) % sizes[dim]
            path.append(tile_at(topology, cur))
    return path


def links_on_route(topology: Topology, src: int, dst: int) -> List[Link]:
    path = route(topology, src, dst)
    return list(zip(path[:-1], path[1:]))


def link_length_tiles(topology: Topology, src: int, dst: int) -> float:
    """Physical length of the ``src -> dst`` link in tile pitches, per kind:
    a mesh link spans one pitch, a folded-torus link two, a ruche express
    link two per router it skips, and a 3D stack's vertical (TSV) link
    ``via_length_tiles``."""
    a, b = coords(topology, src), coords(topology, dst)
    if topology.kind in ("mesh3d", "torus3d"):
        if a[2] != b[2]:
            return topology.via_length_tiles
        return 2.0 if topology.kind == "torus3d" else 1.0
    if topology.kind == "torus_ruche":
        span_x = min(abs(b[0] - a[0]), topology.width - abs(b[0] - a[0]))
        span_y = min(abs(b[1] - a[1]), topology.height - abs(b[1] - a[1]))
        return 2.0 * max(span_x, span_y, 1)
    return 2.0 if topology.kind == "torus" else 1.0


def leg_table(topology: Topology) -> Tuple[tuple, ...]:
    """``SlotLayout.dimensions`` built from :func:`next_hop_offsets`: per
    dimension, ``(stride, size, legs)`` where ``legs[delta + size - 1]``
    lists the ``(offset, port)`` of every hop covering ``delta``, ports
    numbered +1, -1, +R, -R within each dimension."""
    express = topology.ruche_factor
    steps = (1, -1, express, -express) if express else (1, -1)
    dimensions = []
    stride = 1
    for dim, size in enumerate(topology.dimension_sizes()):
        port = {step: dim * len(steps) + index for index, step in enumerate(steps)}
        legs = [
            tuple((step, port[step]) for step in next_hop_offsets(topology, delta, size))
            for delta in range(1 - size, size)
        ]
        dimensions.append((stride, size, legs))
        stride *= size
    return tuple(dimensions)

"""Synthetic graph generators.

The paper evaluates RMAT (Kronecker) graphs and three real-world networks
(Amazon, Wikipedia, LiveJournal).  The real-world edge lists are not
redistributable here, so :mod:`repro.graph.datasets` builds stand-ins from the
generators in this module: RMAT for skewed social-network-like graphs, plus a
few structured generators used by tests and examples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def _weights(rng: np.random.Generator, count: int, weighted: bool, max_weight: int) -> np.ndarray:
    if weighted:
        return rng.integers(1, max_weight + 1, size=count).astype(np.float64)
    return np.ones(count, dtype=np.float64)


def _validate_rmat(scale: int, a: float, b: float, c: float) -> float:
    if scale < 1 or scale > 30:
        raise GraphError("rmat scale must be between 1 and 30")
    d = 1.0 - a - b - c
    if d < 0:
        raise GraphError("rmat probabilities must sum to at most 1")
    return d


def rmat_graph(
    scale: int,
    edge_factor: int = 10,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 16,
    undirected: bool = False,
    name: Optional[str] = None,
) -> CSRGraph:
    """Generate an RMAT (recursive-matrix / Kronecker) graph.

    Args:
        scale: ``log2`` of the number of vertices (the paper uses RMAT-16..26).
        edge_factor: average directed edges per vertex (the paper uses ~10).
        a, b, c: RMAT quadrant probabilities; ``d = 1 - a - b - c``.
        seed: RNG seed for reproducibility.
        weighted: draw integer edge weights in ``[1, max_weight]`` when true.
        undirected: symmetrize the edge list before building CSR.

    Returns:
        A :class:`CSRGraph` with ``2**scale`` vertices.
    """
    _validate_rmat(scale, a, b, c)
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = num_vertices * edge_factor

    sources = np.zeros(num_edges, dtype=np.int64)
    dests = np.zeros(num_edges, dtype=np.int64)
    # Vectorized RMAT: at every level, draw a quadrant for every edge at once.
    for level in range(scale):
        r = rng.random(num_edges)
        go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        go_down = r >= a + b
        sources = (sources << 1) | go_down.astype(np.int64)
        dests = (dests << 1) | go_right.astype(np.int64)

    # Graph500-style label permutation: without it, RMAT degree correlates with
    # the vertex ID bit pattern (including the low-order bits used for
    # placement), which no real dataset exhibits.
    perm = rng.permutation(num_vertices)
    sources = perm[sources]
    dests = perm[dests]

    edges = np.stack([sources, dests], axis=1)
    weights = _weights(rng, len(edges), weighted, max_weight)
    graph_name = name or f"rmat{scale}"
    return CSRGraph.from_edges(
        num_vertices,
        edges,
        weights,
        directed=not undirected,
        dedup=True,
        name=graph_name,
    )


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 16,
    name: str = "uniform",
) -> CSRGraph:
    """Erdos-Renyi-style graph: each edge endpoint drawn uniformly at random."""
    if num_vertices < 1:
        raise GraphError("need at least one vertex")
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_vertices, size=num_edges)
    dests = rng.integers(0, num_vertices, size=num_edges)
    edges = np.stack([sources, dests], axis=1)
    weights = _weights(rng, len(edges), weighted, max_weight)
    return CSRGraph.from_edges(num_vertices, edges, weights, dedup=True, name=name)


def power_law_graph(
    num_vertices: int,
    average_degree: int = 8,
    exponent: float = 0.8,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 16,
    name: str = "power_law",
) -> CSRGraph:
    """Graph whose destination popularity decays as ``rank ** -exponent``.

    Used as a stand-in for web/social/product graphs: hot vertices attract a
    disproportionate share of the in-edges and occupy the *lowest IDs* (as in
    degree-sorted datasets), which is exactly the situation that causes load
    imbalance in vertex-block-partitioned systems and that the paper's uniform
    (low-order-bit) placement spreads across tiles.  The default exponent keeps
    the hottest vertex at a few percent of all edges, matching the relative hub
    sizes of the paper's real-world datasets at stand-in scale.
    """
    if num_vertices < 2:
        raise GraphError("need at least two vertices")
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * average_degree
    # Popularity weights ~ rank^-exponent.  Hot vertices get the lowest IDs, as
    # in degree-sorted real-world datasets; the paper's uniform placement is
    # designed to spread exactly this kind of hub clustering across tiles.
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    popularity = ranks ** (-exponent)
    popularity /= popularity.sum()
    sources = rng.integers(0, num_vertices, size=num_edges)
    dests = rng.choice(num_vertices, size=num_edges, p=popularity)
    edges = np.stack([sources, dests], axis=1)
    weights = _weights(rng, len(edges), weighted, max_weight)
    return CSRGraph.from_edges(num_vertices, edges, weights, dedup=True, name=name)


def grid_graph(width: int, height: int, weighted: bool = False, seed: int = 0) -> CSRGraph:
    """4-neighbour 2D grid graph (useful for deterministic tests)."""
    if width < 1 or height < 1:
        raise GraphError("grid dimensions must be positive")
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
                edges.append((v + 1, v))
            if y + 1 < height:
                edges.append((v, v + width))
                edges.append((v + width, v))
    rng = np.random.default_rng(seed)
    values = _weights(rng, len(edges), weighted, 8)
    return CSRGraph.from_edges(width * height, edges, values, name=f"grid{width}x{height}")


def chain_graph(num_vertices: int, weighted: bool = False, seed: int = 0) -> CSRGraph:
    """Bidirectional path graph 0-1-2-...-(n-1)."""
    if num_vertices < 1:
        raise GraphError("need at least one vertex")
    edges = []
    for v in range(num_vertices - 1):
        edges.append((v, v + 1))
        edges.append((v + 1, v))
    rng = np.random.default_rng(seed)
    values = _weights(rng, len(edges), weighted, 8)
    return CSRGraph.from_edges(num_vertices, edges, values, name=f"chain{num_vertices}")


def star_graph(num_vertices: int) -> CSRGraph:
    """Star graph: vertex 0 connected to every other vertex (both directions)."""
    if num_vertices < 2:
        raise GraphError("star graph needs at least two vertices")
    edges = []
    for v in range(1, num_vertices):
        edges.append((0, v))
        edges.append((v, 0))
    return CSRGraph.from_edges(num_vertices, edges, name=f"star{num_vertices}")


def complete_graph(num_vertices: int) -> CSRGraph:
    """Complete directed graph (every ordered pair except self loops)."""
    if num_vertices < 1:
        raise GraphError("need at least one vertex")
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    return CSRGraph.from_edges(num_vertices, edges, name=f"complete{num_vertices}")

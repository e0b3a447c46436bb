"""Sequential reference implementations of the evaluated applications.

The paper validates its simulator against sequential x86 executions; we do the
same by checking every Dalorex simulation output against these functions.  All
algorithms operate on :class:`~repro.graph.csr.CSRGraph` and use plain
single-threaded numpy: the traversals are level-synchronous frontier loops,
each level one array pass.  ``tests/graph/reference_loops.py`` keeps the
per-vertex deque BFS, Dijkstra and per-component WCC they replaced, and the
tests require bit-equal results.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, concat_ranges

#: Sentinel distance/level for unreachable vertices.
UNREACHED = np.iinfo(np.int64).max


def bfs_levels(graph: CSRGraph, root: int) -> np.ndarray:
    """Breadth-first search: number of hops from ``root`` to every vertex.

    Level-synchronous: each level's frontier expands in one array pass.
    Unreachable vertices get :data:`UNREACHED`.
    """
    if root < 0 or root >= graph.num_vertices:
        raise GraphError(f"root {root} out of range")
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        edges, _ = concat_ranges(graph.indptr[frontier], graph.indptr[frontier + 1])
        neighbors = graph.indices[edges]
        # Sort-based dedup: np.unique's hash table grows the process heap.
        fresh = np.sort(neighbors[levels[neighbors] == UNREACHED])
        frontier = fresh[np.flatnonzero(np.diff(fresh, prepend=-1))]
        levels[frontier] = level
    return levels


def sssp_distances(graph: CSRGraph, root: int) -> np.ndarray:
    """Single-source shortest paths with non-negative edge weights.

    Level-synchronous relaxation: every vertex whose distance dropped in one
    round relaxes its out-edges in the next, and each target keeps its
    smallest improving candidate.  IEEE addition is monotone and a
    non-negative weight never lowers a sum, so the fixpoint is the minimum
    over paths of the left-to-right sum of their weights: Dijkstra's
    distances, bit for bit.
    """
    if root < 0 or root >= graph.num_vertices:
        raise GraphError(f"root {root} out of range")
    if graph.num_edges and graph.values.min() < 0:
        raise GraphError("sssp requires non-negative edge weights")
    dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
    dist[root] = 0.0
    frontier = np.array([root], dtype=np.int64)
    while len(frontier):
        edges, degrees = concat_ranges(graph.indptr[frontier], graph.indptr[frontier + 1])
        candidates = np.repeat(dist[frontier], degrees) + graph.values[edges]
        targets = graph.indices[edges]
        better = candidates < dist[targets]
        targets = targets[better]
        candidates = candidates[better]
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        candidates = candidates[order]
        firsts = np.flatnonzero(np.diff(targets, prepend=-1))
        frontier = targets[firsts]
        if len(frontier):
            dist[frontier] = np.minimum.reduceat(candidates, firsts)
    return dist


def pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    num_iterations: int = 20,
    tolerance: Optional[float] = None,
) -> np.ndarray:
    """Power-iteration PageRank (push formulation, matching the Dalorex kernel).

    Dangling vertices redistribute their rank uniformly.  When ``tolerance`` is
    given the iteration stops early once the L1 change drops below it.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    degrees = graph.degrees().astype(np.float64)
    sources = graph.edge_sources()
    for _ in range(num_iterations):
        contrib = np.zeros(n, dtype=np.float64)
        per_edge = np.where(degrees[sources] > 0, rank[sources] / degrees[sources], 0.0)
        np.add.at(contrib, graph.indices, per_edge)
        dangling = rank[degrees == 0].sum()
        new_rank = (1.0 - damping) / n + damping * (contrib + dangling / n)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if tolerance is not None and delta < tolerance:
            break
    return rank


def wcc_labels(graph: CSRGraph) -> np.ndarray:
    """Weakly connected components via label propagation over the symmetrized graph.

    Each vertex's label is the minimum vertex ID in its weakly connected
    component (the same convergence point as the paper's coloring approach).
    Level-synchronous: every vertex whose label dropped in one round offers
    it to its neighbours in the next, and labels pointer-jump
    (``labels[labels]``) after each round, so a long path converges in few
    rounds.  A label is always a vertex of the same component with an ID no
    larger, so the fixpoint -- equal labels across every edge -- is each
    component's minimum ID.
    """
    undirected = graph if graph.is_symmetric() else graph.to_undirected()
    indptr = undirected.indptr
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    frontier = np.flatnonzero(undirected.degrees())
    while len(frontier):
        before = labels.copy()
        edges, degrees = concat_ranges(indptr[frontier], indptr[frontier + 1])
        targets = undirected.indices[edges]
        offers = np.repeat(labels[frontier], degrees)
        better = offers < labels[targets]
        targets = targets[better]
        offers = offers[better]
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        offers = offers[order]
        firsts = np.flatnonzero(np.diff(targets, prepend=-1))
        if len(firsts):
            labels[targets[firsts]] = np.minimum.reduceat(offers, firsts)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels = jumped
            jumped = labels[labels]
        frontier = np.flatnonzero(labels != before)
    return labels


def connected_component_count(graph: CSRGraph) -> int:
    """Number of weakly connected components."""
    return len(np.unique(wcc_labels(graph)))


def spmv(graph: CSRGraph, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``y = A @ x`` with A given in CSR form."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) != graph.num_vertices:
        raise GraphError("vector length must equal the number of columns/vertices")
    y = np.zeros(graph.num_vertices, dtype=np.float64)
    sources = graph.edge_sources()
    np.add.at(y, sources, graph.values * x[graph.indices])
    return y

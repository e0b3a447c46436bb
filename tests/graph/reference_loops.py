"""Per-vertex reference traversals, kept as test oracles.

``repro.graph.reference`` computes BFS levels, SSSP distances and WCC
labels with level-synchronous numpy frontier loops.  This module keeps the
loops those replaced -- a deque BFS, Dijkstra with a binary heap, and one
deque BFS per weakly connected component -- verbatim.  The tests require
the production functions to return bit-identical arrays.
"""

import heapq
from collections import deque

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.reference import UNREACHED


def bfs_levels(graph: CSRGraph, root: int) -> np.ndarray:
    """Deque BFS: number of hops from ``root`` to every vertex."""
    if root < 0 or root >= graph.num_vertices:
        raise GraphError(f"root {root} out of range")
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    levels[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        next_level = levels[v] + 1
        begin, end = graph.edge_range(v)
        for neighbor in graph.indices[begin:end]:
            if levels[neighbor] == UNREACHED:
                levels[neighbor] = next_level
                queue.append(int(neighbor))
    return levels


def sssp_distances(graph: CSRGraph, root: int) -> np.ndarray:
    """Dijkstra single-source shortest paths with non-negative edge weights."""
    if root < 0 or root >= graph.num_vertices:
        raise GraphError(f"root {root} out of range")
    if graph.num_edges and graph.values.min() < 0:
        raise GraphError("sssp requires non-negative edge weights")
    dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
    dist[root] = 0.0
    heap = [(0.0, root)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        begin, end = graph.edge_range(v)
        for offset in range(begin, end):
            u = int(graph.indices[offset])
            candidate = d + graph.values[offset]
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, u))
    return dist


def wcc_labels(graph: CSRGraph) -> np.ndarray:
    """Minimum vertex ID per weakly connected component, one deque BFS per
    component over the symmetrized graph."""
    undirected = graph if graph.is_symmetric() else graph.to_undirected()
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    visited = np.zeros(graph.num_vertices, dtype=bool)
    for start in range(graph.num_vertices):
        if visited[start]:
            continue
        component = [start]
        visited[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            begin, end = undirected.edge_range(v)
            for neighbor in undirected.indices[begin:end]:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    component.append(int(neighbor))
                    queue.append(int(neighbor))
        label = min(component)
        labels[component] = label
    return labels

"""Single-Source Shortest Path (SSSP) in the Dalorex programming model.

This is the paper's running example (Fig. 2 / Listing 1), run as the shared
frontier program of :class:`~repro.apps.common.FrontierGraphKernel` over a
per-vertex ``dist``: T1 sends the source distance to the vertex's edge
chunks, T2 adds each edge's ``edge_weight``, and T3 keeps the smaller
distance on the destination's owning tile.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import FrontierGraphKernel, Seed
from repro.graph.csr import CSRGraph
from repro.graph.reference import sssp_distances


class SSSPKernel(FrontierGraphKernel):
    """Shortest weighted distance from a root vertex to every reachable vertex."""

    name = "sssp"
    value_array = "dist"
    weight_array = "edge_weight"

    def __init__(self, root: int = 0) -> None:
        self.root = root

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        dist[self.root] = 0.0
        return dist

    def initial_tasks(self, graph: CSRGraph) -> Seed:
        return self.explore_task, (np.array([self.root], dtype=np.int64),)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return sssp_distances(graph, self.root)

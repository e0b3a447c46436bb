"""Breadth-First Search in the Dalorex task-based programming model.

BFS runs the shared frontier program of
:class:`~repro.apps.common.FrontierGraphKernel` (the paper's Fig. 2 split)
over a per-vertex ``level``: T1 sends ``level + 1`` to the vertex's edge
chunks, and T3 keeps the smaller level on the neighbour's owning tile.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import FrontierGraphKernel, Seed
from repro.graph.csr import CSRGraph
from repro.graph.reference import UNREACHED, bfs_levels


class BFSKernel(FrontierGraphKernel):
    """Number of hops from a root vertex to every reachable vertex."""

    name = "bfs"
    value_array = "level"

    def __init__(self, root: int = 0) -> None:
        self.root = root

    def carry(self, values):
        return values + 1

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        level = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        level[self.root] = 0
        return level

    def initial_tasks(self, graph: CSRGraph) -> Seed:
        return self.explore_task, (np.array([self.root], dtype=np.int64),)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return bfs_levels(graph, self.root)

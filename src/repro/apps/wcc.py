"""Weakly Connected Components (WCC) in the Dalorex programming model.

Implemented as minimum-label propagation (a coloring approach, as the paper
cites), run as the shared frontier program of
:class:`~repro.apps.common.FrontierGraphKernel` over a per-vertex ``label``:
every vertex starts labelled with its own ID, pushes its label to its
neighbours, and adopts any smaller label it receives, re-entering the frontier
when it improves.  The input graph is symmetrized so the fixpoint labels the
weakly connected components.  WCC has many epochs on high-diameter graphs,
which is why the paper reports it benefits most from barrierless execution.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import FrontierGraphKernel, Seed, all_vertex_seeds
from repro.graph.csr import CSRGraph
from repro.graph.reference import wcc_labels


class WCCKernel(FrontierGraphKernel):
    """Label of the weakly connected component containing each vertex."""

    name = "wcc"
    value_array = "label"

    def prepare_graph(self, graph: CSRGraph) -> CSRGraph:
        """Symmetrize the graph so label propagation finds *weak* components."""
        if graph.is_symmetric():
            return graph
        return graph.to_undirected()

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.int64)

    def initial_tasks(self, graph: CSRGraph) -> Seed:
        return all_vertex_seeds(self.explore_task, graph)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return wcc_labels(graph)

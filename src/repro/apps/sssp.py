"""Single-Source Shortest Path (SSSP) in the Dalorex programming model.

This is the paper's running example (Fig. 2 / Listing 1): T1 reads the source
distance and neighbour range, T2 adds edge weights and emits one update per
neighbour, T3 relaxes the destination distance, and T4 re-explores improved
vertices from the local frontier.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.common import FrontierGraphKernel, Seed
from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.graph.csr import CSRGraph
from repro.graph.reference import sssp_distances


class SSSPKernel(FrontierGraphKernel):
    """Shortest weighted distance from a root vertex to every reachable vertex."""

    name = "sssp"
    batch_value_array = "dist"
    batch_t2_edge_reads = 2
    batch_t2_edge_compute = 1

    def __init__(self, root: int = 0) -> None:
        self.root = root

    def batch_t2_values(self, machine, flat_edges: np.ndarray, carried: np.ndarray) -> np.ndarray:
        return carried + machine.arrays["edge_weight"][flat_edges]

    # ----------------------------------------------------------------- program
    def build_program(self) -> DalorexProgram:
        program = DalorexProgram("sssp")
        program.add_array("dist", VERTEX_SPACE, 4, "current shortest distance")
        program.add_array("row_begin", VERTEX_SPACE, 4, "first edge index of the vertex")
        program.add_array("row_degree", VERTEX_SPACE, 4, "out-degree of the vertex")
        program.add_array("in_frontier", VERTEX_SPACE, 1, "local frontier flag")
        program.add_array("edge_dst", EDGE_SPACE, 4, "edge destination vertex")
        program.add_array("edge_weight", EDGE_SPACE, 4, "edge weight")
        program.add_task(
            "T1_explore", self._t1_explore, VERTEX_SPACE, num_params=1, iq_capacity=32,
            description="read dist + neighbour range, fan out to edge chunks",
        )
        program.add_task(
            "T2_expand", self._t2_expand, EDGE_SPACE, num_params=3, iq_capacity=128,
            description="add edge weights, emit one relax per neighbour",
        )
        program.add_task(
            "T3_relax", self._t3_relax, VERTEX_SPACE, num_params=2, iq_capacity=2048,
            description="update the destination distance if smaller",
        )
        program.add_task(
            "T4_refrontier", self._t4_refrontier, VERTEX_SPACE, num_params=1, iq_capacity=512,
            description="re-explore a vertex that entered the local frontier",
        )
        return program

    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        dist = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        dist[self.root] = 0.0
        return {
            "dist": dist,
            "row_begin": graph.indptr[:-1].astype(np.int64),
            "row_degree": graph.degrees().astype(np.int64),
            "in_frontier": np.zeros(graph.num_vertices, dtype=np.uint8),
            "edge_dst": graph.indices.astype(np.int64),
            "edge_weight": graph.values.astype(np.float64),
        }

    def initial_tasks(self, graph: CSRGraph) -> Seed:
        return "T1_explore", (np.array([self.root], dtype=np.int64),)

    # ------------------------------------------------------------------ tasks
    def _t1_explore(self, ctx, vertex: int) -> None:
        distance = ctx.read("dist", vertex)
        begin = ctx.read("row_begin", vertex)
        degree = ctx.read("row_degree", vertex)
        ctx.compute(1)
        if degree > 0:
            ctx.invoke_range("T2_expand", begin, begin + degree, distance)

    def _t2_expand(self, ctx, begin: int, end: int, source_distance: float) -> None:
        for edge in range(begin, end):
            neighbor = ctx.read("edge_dst", edge)
            weight = ctx.read("edge_weight", edge)
            ctx.compute(1)
            ctx.invoke("T3_relax", neighbor, source_distance + weight)
        ctx.count_edges(end - begin)

    def _t3_relax(self, ctx, vertex: int, new_distance: float) -> None:
        current = ctx.read("dist", vertex)
        ctx.compute(1)
        if new_distance < current:
            ctx.write("dist", vertex, new_distance)
            self.mark_frontier(ctx, vertex)

    def _t4_refrontier(self, ctx, vertex: int) -> None:
        if ctx.read("in_frontier", vertex):
            ctx.write("in_frontier", vertex, 0)
            ctx.invoke("T1_explore", vertex)

    # ----------------------------------------------------------------- output
    def result(self, machine) -> np.ndarray:
        return machine.arrays["dist"].copy()

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return sssp_distances(graph, self.root)

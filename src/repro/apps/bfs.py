"""Breadth-First Search in the Dalorex task-based programming model.

The split follows the paper's Fig. 2: T1 reads the vertex's level and neighbour
range, T2 walks the edge chunk and emits one update per neighbour, T3 relaxes
the neighbour's level on its owning tile, and T4 re-explores vertices that
entered the local frontier (barrierless mode only).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.common import FrontierGraphKernel, Seed
from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.graph.csr import CSRGraph
from repro.graph.reference import UNREACHED, bfs_levels


class BFSKernel(FrontierGraphKernel):
    """Number of hops from a root vertex to every reachable vertex."""

    name = "bfs"
    batch_value_array = "level"

    def __init__(self, root: int = 0) -> None:
        self.root = root

    def batch_t1_values(self, values: np.ndarray) -> np.ndarray:
        return values + 1

    # ----------------------------------------------------------------- program
    def build_program(self) -> DalorexProgram:
        program = DalorexProgram("bfs")
        program.add_array("level", VERTEX_SPACE, 4, "hop count from the root")
        program.add_array("row_begin", VERTEX_SPACE, 4, "first edge index of the vertex")
        program.add_array("row_degree", VERTEX_SPACE, 4, "out-degree of the vertex")
        program.add_array("in_frontier", VERTEX_SPACE, 1, "local frontier flag")
        program.add_array("edge_dst", EDGE_SPACE, 4, "edge destination vertex")
        program.add_task(
            "T1_explore", self._t1_explore, VERTEX_SPACE, num_params=1, iq_capacity=32,
            description="read level + neighbour range, fan out to edge chunks",
        )
        program.add_task(
            "T2_expand", self._t2_expand, EDGE_SPACE, num_params=3, iq_capacity=128,
            description="walk an edge chunk and emit one relax per neighbour",
        )
        program.add_task(
            "T3_relax", self._t3_relax, VERTEX_SPACE, num_params=2, iq_capacity=2048,
            description="update the neighbour's level if the new one is smaller",
        )
        program.add_task(
            "T4_refrontier", self._t4_refrontier, VERTEX_SPACE, num_params=1, iq_capacity=512,
            description="re-explore a vertex that entered the local frontier",
        )
        return program

    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        level = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        level[self.root] = 0
        return {
            "level": level,
            "row_begin": graph.indptr[:-1].astype(np.int64),
            "row_degree": graph.degrees().astype(np.int64),
            "in_frontier": np.zeros(graph.num_vertices, dtype=np.uint8),
            "edge_dst": graph.indices.astype(np.int64),
        }

    def initial_tasks(self, graph: CSRGraph) -> Seed:
        return "T1_explore", (np.array([self.root], dtype=np.int64),)

    # ------------------------------------------------------------------ tasks
    def _t1_explore(self, ctx, vertex: int) -> None:
        level = ctx.read("level", vertex)
        begin = ctx.read("row_begin", vertex)
        degree = ctx.read("row_degree", vertex)
        ctx.compute(1)
        if degree > 0:
            ctx.invoke_range("T2_expand", begin, begin + degree, level + 1)

    def _t2_expand(self, ctx, begin: int, end: int, new_level: int) -> None:
        for edge in range(begin, end):
            neighbor = ctx.read("edge_dst", edge)
            ctx.invoke("T3_relax", neighbor, new_level)
        ctx.count_edges(end - begin)

    def _t3_relax(self, ctx, vertex: int, new_level: int) -> None:
        current = ctx.read("level", vertex)
        ctx.compute(1)
        if new_level < current:
            ctx.write("level", vertex, new_level)
            self.mark_frontier(ctx, vertex)

    def _t4_refrontier(self, ctx, vertex: int) -> None:
        if ctx.read("in_frontier", vertex):
            ctx.write("in_frontier", vertex, 0)
            ctx.invoke("T1_explore", vertex)

    # ----------------------------------------------------------------- output
    def result(self, machine) -> np.ndarray:
        return machine.arrays["level"].copy()

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return bfs_levels(graph, self.root)

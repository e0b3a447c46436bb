"""PageRank in the Dalorex programming model (push formulation, per-epoch barrier).

As in the paper, PageRank necessitates per-epoch synchronization, so the kernel
declares ``requires_barrier``: every epoch each vertex pushes its damped
contribution to its neighbours (T1 -> T2 -> T3), the global idle signal detects
the end of the epoch, and the host-side epoch hook folds the accumulated
contributions into the next rank vector.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.apps.common import Kernel, Seed, all_vertex_seeds
from repro.core.batch import BatchResult, split_ranges
from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.graph.csr import CSRGraph, concat_ranges
from repro.graph.reference import pagerank


class PageRankKernel(Kernel):
    """Damped PageRank over a fixed number of synchronized iterations."""

    name = "pagerank"
    requires_barrier = True

    def __init__(self, damping: float = 0.85, num_iterations: int = 10) -> None:
        self.damping = damping
        self.num_iterations = num_iterations

    # ----------------------------------------------------------------- program
    def build_program(self) -> DalorexProgram:
        program = DalorexProgram("pagerank")
        program.add_array("rank", VERTEX_SPACE, 4)
        program.add_array("next_rank", VERTEX_SPACE, 4)
        program.add_array("row_begin", VERTEX_SPACE, 4)
        program.add_array("row_degree", VERTEX_SPACE, 4)
        program.add_array("edge_dst", EDGE_SPACE, 4)
        program.add_task("T1_push", self._t1_push, VERTEX_SPACE, num_params=1, iq_capacity=64)
        program.add_task("T2_fan", self._t2_fan, EDGE_SPACE, num_params=3, iq_capacity=128)
        program.add_task(
            "T3_accumulate", self._t3_accumulate, VERTEX_SPACE, num_params=2, iq_capacity=2048
        )
        return program

    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        vertices = graph.num_vertices
        initial = 1.0 / vertices if vertices else 0.0
        return {
            "rank": np.full(vertices, initial, dtype=np.float64),
            "next_rank": np.zeros(vertices, dtype=np.float64),
            "row_begin": graph.indptr[:-1].astype(np.int64),
            "row_degree": graph.degrees().astype(np.int64),
            "edge_dst": graph.indices.astype(np.int64),
        }

    def initial_tasks(self, graph: CSRGraph) -> Seed:
        return all_vertex_seeds("T1_push", graph)

    # ------------------------------------------------------------------ tasks
    def _t1_push(self, ctx, vertex: int) -> None:
        rank = ctx.read("rank", vertex)
        degree = ctx.read("row_degree", vertex)
        begin = ctx.read("row_begin", vertex)
        ctx.compute(2)
        if degree > 0:
            contribution = self.damping * rank / degree
            ctx.invoke_range("T2_fan", begin, begin + degree, contribution)

    def _t2_fan(self, ctx, begin: int, end: int, contribution: float) -> None:
        for edge in range(begin, end):
            neighbor = ctx.read("edge_dst", edge)
            ctx.invoke("T3_accumulate", neighbor, contribution)
        ctx.count_edges(end - begin)

    def _t3_accumulate(self, ctx, vertex: int, contribution: float) -> None:
        accumulated = ctx.read("next_rank", vertex)
        ctx.compute(1)
        ctx.write("next_rank", vertex, accumulated + contribution)

    # -------------------------------------------------------------- batch mode
    def batch_handlers(self, machine) -> Dict[str, object]:
        arrays = machine.arrays
        program = machine.program
        t2 = program.task("T2_fan")
        t3 = program.task("T3_accumulate")
        rank = arrays["rank"]
        next_rank = arrays["next_rank"]
        row_begin = arrays["row_begin"]
        row_degree = arrays["row_degree"]
        edge_dst = arrays["edge_dst"]
        edge_space = machine.placement.space(t2.route_space)
        vertex_space = machine.placement.space(t3.route_space)
        max_range = machine.config.max_range_per_message
        damping = self.damping

        def run_t1(segment) -> BatchResult:
            verts = np.asarray(segment.params[0], dtype=np.int64)
            ranks = rank[verts]
            degrees = row_degree[verts]
            begins = row_begin[verts]
            contribution = np.zeros(segment.n, dtype=np.float64)
            pushing = degrees > 0
            contribution[pushing] = damping * ranks[pushing] / degrees[pushing]
            dests, piece_begin, piece_end, pieces = split_ranges(
                edge_space, begins, begins + degrees, max_range
            )
            reads = np.full(segment.n, 3, dtype=np.int64)
            writes = np.zeros(segment.n, dtype=np.int64)
            extra = 2 + t2.flits_per_invocation * pieces
            emits = None
            if len(dests):
                emits = (
                    t2,
                    dests,
                    (piece_begin, piece_end, np.repeat(contribution, pieces)),
                    pieces,
                )
            return BatchResult(reads, writes, extra, emits=emits)

        def run_t2(segment) -> BatchResult:
            begins, ends, carried = segment.params
            flat, counts = concat_ranges(begins, ends)
            neighbors = edge_dst[flat]
            reads = counts.copy()
            writes = np.zeros(segment.n, dtype=np.int64)
            extra = t3.flits_per_invocation * counts
            emits = None
            if len(neighbors):
                emits = (
                    t3,
                    vertex_space.owners_of(neighbors),
                    (neighbors, np.repeat(carried, counts)),
                    counts,
                )
            return BatchResult(reads, writes, extra, edges=counts, emits=emits)

        def run_t3(segment) -> BatchResult:
            verts = np.asarray(segment.params[0], dtype=np.int64)
            contributions = segment.params[1]
            # np.add.at applies duplicate indices in element order, matching
            # the scalar read-add-write chain per vertex exactly.
            np.add.at(next_rank, verts, contributions)
            ones = np.ones(segment.n, dtype=np.int64)
            return BatchResult(ones, ones, ones)

        return {"T1_push": run_t1, "T2_fan": run_t2, "T3_accumulate": run_t3}

    # ------------------------------------------------------------------ epochs
    def next_epoch(self, machine, epoch_index: int) -> Optional[Seed]:
        rank = machine.arrays["rank"]
        next_rank = machine.arrays["next_rank"]
        degrees = machine.arrays["row_degree"]
        vertices = len(rank)
        dangling = self.damping * rank[degrees == 0].sum() / vertices if vertices else 0.0
        rank[:] = (1.0 - self.damping) / vertices + next_rank + dangling
        next_rank[:] = 0.0
        if epoch_index >= self.num_iterations:
            return None
        return all_vertex_seeds("T1_push", machine.graph)

    # ----------------------------------------------------------------- output
    def result(self, machine) -> np.ndarray:
        return machine.arrays["rank"].copy()

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return pagerank(graph, damping=self.damping, num_iterations=self.num_iterations)

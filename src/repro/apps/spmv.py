"""Sparse matrix-vector multiplication (SPMV) in the Dalorex programming model.

The sparse matrix is the graph's adjacency matrix in CSR form; the dense input
and output vectors are distributed over the vertex space.  The task split
mirrors the graph kernels: T1 fans a row out to its edge chunks, T2 walks the
chunk and forwards each non-zero to the owner of ``x[column]``, T3 performs the
multiply next to the vector element, and T4 accumulates the product into
``y[row]`` on the row owner's tile.  This is the paper's demonstration that the
execution model generalizes beyond graph analytics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.apps.common import Kernel, Seed, all_vertex_seeds
from repro.core.batch import BatchResult, split_ranges
from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.graph.csr import CSRGraph, concat_ranges
from repro.graph.reference import spmv


class SPMVKernel(Kernel):
    """Computes ``y = A @ x`` for the CSR adjacency matrix ``A``."""

    name = "spmv"

    def __init__(self, x: Optional[np.ndarray] = None, seed: int = 3) -> None:
        self._x = None if x is None else np.asarray(x, dtype=np.float64)
        self._seed = seed

    # ----------------------------------------------------------------- program
    def build_program(self) -> DalorexProgram:
        program = DalorexProgram("spmv")
        program.add_array("x", VERTEX_SPACE, 4, "dense input vector")
        program.add_array("y", VERTEX_SPACE, 4, "dense output vector")
        program.add_array("row_begin", VERTEX_SPACE, 4, "first non-zero index of the row")
        program.add_array("row_degree", VERTEX_SPACE, 4, "non-zeros in the row")
        program.add_array("edge_col", EDGE_SPACE, 4, "column index of the non-zero")
        program.add_array("edge_val", EDGE_SPACE, 4, "value of the non-zero")
        program.add_task(
            "T1_row", self._t1_row, VERTEX_SPACE, num_params=1, iq_capacity=64,
            description="fan the row out to its non-zero chunks",
        )
        program.add_task(
            "T2_nonzeros", self._t2_nonzeros, EDGE_SPACE, num_params=3, iq_capacity=128,
            description="walk a non-zero chunk and forward each to its column owner",
        )
        program.add_task(
            "T3_multiply", self._t3_multiply, VERTEX_SPACE, num_params=3, iq_capacity=1024,
            description="multiply the non-zero by x[column]",
        )
        program.add_task(
            "T4_accumulate", self._t4_accumulate, VERTEX_SPACE, num_params=2, iq_capacity=2048,
            description="accumulate the product into y[row]",
        )
        return program

    def vector(self, graph: CSRGraph) -> np.ndarray:
        """The dense input vector used for this run (generated once if needed)."""
        if self._x is None:
            rng = np.random.default_rng(self._seed)
            self._x = rng.uniform(0.0, 1.0, size=graph.num_vertices)
        return self._x

    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        return {
            "x": self.vector(graph).astype(np.float64),
            "y": np.zeros(graph.num_vertices, dtype=np.float64),
            "row_begin": graph.indptr[:-1].astype(np.int64),
            "row_degree": graph.degrees().astype(np.int64),
            "edge_col": graph.indices.astype(np.int64),
            "edge_val": graph.values.astype(np.float64),
        }

    def initial_tasks(self, graph: CSRGraph) -> List[Seed]:
        return all_vertex_seeds("T1_row", graph)

    # ------------------------------------------------------------------ tasks
    def _t1_row(self, ctx, row: int) -> None:
        begin = ctx.read("row_begin", row)
        degree = ctx.read("row_degree", row)
        ctx.compute(1)
        if degree > 0:
            ctx.invoke_range("T2_nonzeros", begin, begin + degree, row)

    def _t2_nonzeros(self, ctx, begin: int, end: int, row: int) -> None:
        for index in range(begin, end):
            column = ctx.read("edge_col", index)
            value = ctx.read("edge_val", index)
            ctx.invoke("T3_multiply", column, value, row)
        ctx.count_edges(end - begin)

    def _t3_multiply(self, ctx, column: int, value: float, row: int) -> None:
        x_value = ctx.read("x", column)
        ctx.compute(1)
        ctx.invoke("T4_accumulate", row, value * x_value)

    def _t4_accumulate(self, ctx, row: int, product: float) -> None:
        accumulated = ctx.read("y", row)
        ctx.compute(1)
        ctx.write("y", row, accumulated + product)

    # -------------------------------------------------------------- batch mode
    def batch_handlers(self, machine) -> Dict[str, object]:
        arrays = machine.arrays
        program = machine.program
        t2 = program.task("T2_nonzeros")
        t3 = program.task("T3_multiply")
        t4 = program.task("T4_accumulate")
        x = arrays["x"]
        y = arrays["y"]
        row_begin = arrays["row_begin"]
        row_degree = arrays["row_degree"]
        edge_col = arrays["edge_col"]
        edge_val = arrays["edge_val"]
        edge_space = machine.placement.space(t2.route_space)
        vertex_space = machine.placement.space(t3.route_space)
        max_range = machine.config.max_range_per_message

        def run_t1(segment) -> BatchResult:
            rows = np.asarray(segment.params[0], dtype=np.int64)
            begins = row_begin[rows]
            dests, piece_begin, piece_end, pieces = split_ranges(
                edge_space, begins, begins + row_degree[rows], max_range
            )
            reads = np.full(segment.n, 2, dtype=np.int64)
            writes = np.zeros(segment.n, dtype=np.int64)
            extra = 1 + t2.flits_per_invocation * pieces
            emits = None
            if len(dests):
                emits = (
                    t2,
                    dests,
                    (piece_begin, piece_end, np.repeat(rows, pieces)),
                    pieces,
                )
            return BatchResult(reads, writes, extra, emits=emits)

        def run_t2(segment) -> BatchResult:
            begins, ends, rows = segment.params
            flat, counts = concat_ranges(begins, ends)
            columns = edge_col[flat]
            reads = 2 * counts
            writes = np.zeros(segment.n, dtype=np.int64)
            extra = t3.flits_per_invocation * counts
            emits = None
            if len(columns):
                emits = (
                    t3,
                    vertex_space.owners_of(columns),
                    (columns, edge_val[flat], np.repeat(rows, counts)),
                    counts,
                )
            return BatchResult(reads, writes, extra, edges=counts, emits=emits)

        def run_t3(segment) -> BatchResult:
            columns = np.asarray(segment.params[0], dtype=np.int64)
            nonzero_values = segment.params[1]
            rows = segment.params[2]
            products = nonzero_values * x[columns]
            ones = np.ones(segment.n, dtype=np.int64)
            emits = (t4, vertex_space.owners_of(rows), (rows, products), ones)
            return BatchResult(ones, np.zeros(segment.n, dtype=np.int64),
                               1 + t4.flits_per_invocation * ones, emits=emits)

        def run_t4(segment) -> BatchResult:
            rows = np.asarray(segment.params[0], dtype=np.int64)
            products = segment.params[1]
            # Element-order duplicate application matches the scalar
            # read-add-write accumulation into y exactly.
            np.add.at(y, rows, products)
            ones = np.ones(segment.n, dtype=np.int64)
            return BatchResult(ones, ones, ones)

        return {
            "T1_row": run_t1,
            "T2_nonzeros": run_t2,
            "T3_multiply": run_t3,
            "T4_accumulate": run_t4,
        }

    # ----------------------------------------------------------------- output
    def result(self, machine) -> np.ndarray:
        return machine.arrays["y"].copy()

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return spmv(graph, self.vector(graph))

"""Kernel base classes: the contract between applications and the machine.

A kernel packages everything the machine needs to run one application:

* the :class:`~repro.core.program.DalorexProgram` (array and task declarations
  plus the task handlers, i.e. the paper's per-tile binary),
* the initial contents of the distributed arrays,
* the initial work (e.g. the BFS root, or one task per vertex for SPMV),
* the per-epoch reseeding hook used when running with global barriers,
* a sequential reference used to validate the simulated output.

Work reaches the engines as :data:`~repro.core.batch.Seed` batches: one
``(task_name, columns)`` pair per call, holding one int64 array per task
parameter and one entry per invocation, in invocation order.  Every built-in
kernel seeds one task at a time.

BFS, SSSP and WCC are one frontier program, :class:`FrontierGraphKernel`,
whose scalar and batch handlers both read three per-kernel declarations;
PageRank and SPMV define their own programs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.batch import BatchResult, Seed, first_occurrences, relax_min, split_ranges
from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.graph.csr import CSRGraph, concat_ranges


class Kernel(ABC):
    """One application expressed in the Dalorex task-based programming model."""

    #: Application name used in results and reports.
    name: str = "kernel"
    #: True when the algorithm needs a global barrier per epoch (e.g. PageRank).
    requires_barrier: bool = False

    # ----------------------------------------------------------- construction
    @abstractmethod
    def build_program(self) -> DalorexProgram:
        """Declare the distributed arrays and tasks of this application."""

    @abstractmethod
    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        """Initial contents of every declared array (keyed by array name)."""

    @abstractmethod
    def initial_tasks(self, graph: CSRGraph) -> Seed:
        """The batch seeded before the first epoch, as ``(task_name, columns)``."""

    def prepare_graph(self, graph: CSRGraph) -> CSRGraph:
        """Optionally transform the input graph (e.g. symmetrize it for WCC)."""
        return graph

    def extra_spaces(self, graph: CSRGraph) -> Dict[str, Tuple[int, str]]:
        """Index spaces beyond vertex/edge, as ``{name: (length, policy)}``."""
        return {}

    # -------------------------------------------------------------- execution
    def next_epoch(self, machine, epoch_index: int) -> Optional[Seed]:
        """The next barriered epoch's batch, or ``None`` (or an empty batch)
        when converged.

        Only called when the machine runs with global barriers.  The default is
        a single-epoch program.
        """
        return None

    def refill_tile(self, machine, tile_id: int, budget: int) -> Optional[Seed]:
        """The batch a tile can pull from its local frontier when it would
        otherwise idle, or ``None`` when it has none.

        Only called in barrierless mode.  Refill draws only from the tile's
        local frontier bucket, ``machine.state.frontier[tile_id]``, so a
        tile whose bucket is empty has nothing to refill and the analytic
        engine does not ask it.  The default is no local refill
        (single-pass programs such as SPMV).
        """
        return None

    def batch_handlers(self, machine) -> Dict[str, object]:
        """Vectorized batch handlers, keyed by task name (``{}``: none).

        The analytical engine requires a handler for every program task and
        raises :class:`~repro.errors.ConfigurationError` before any task runs
        when one is missing; a kernel with scalar handlers only runs on the
        cycle engine.  A handler receives a
        :class:`~repro.core.batch.Segment` of same-task invocations and
        returns a :class:`~repro.core.batch.BatchResult` whose array
        mutations and per-item accounting are bit-equal to running the
        scalar task handler once per item, in item order.  Each handler
        emits invocations of one downstream task type and touches only
        data local to the tile each item runs on (every built-in kernel
        routes accesses to the owning tile by construction).
        """
        return {}

    # ------------------------------------------------------------ validation
    @abstractmethod
    def result(self, machine) -> np.ndarray:
        """Extract the program output from the machine's arrays."""

    @abstractmethod
    def reference(self, graph: CSRGraph) -> np.ndarray:
        """Sequential reference output for the (prepared) graph."""

    def verify(self, machine) -> bool:
        """Compare the simulated output against the sequential reference."""
        produced = np.asarray(self.result(machine), dtype=np.float64)
        expected = np.asarray(self.reference(machine.graph), dtype=np.float64)
        if produced.shape != expected.shape:
            return False
        return bool(np.allclose(produced, expected, rtol=1e-6, atol=1e-9, equal_nan=True))


class FrontierGraphKernel(Kernel):
    """The frontier program BFS, SSSP and WCC share (the paper's Fig. 2).

    The program is split at each pointer indirection into four tasks: T1
    reads a vertex's value and neighbour range and fans the range out to
    its edge chunks, T2 walks an edge chunk and emits one relax per
    neighbour, T3 keeps the smaller value on the neighbour's owning tile,
    and T4 re-explores a vertex from the local frontier.  The kernels differ
    only in three declarations, which the scalar handlers (run by the cycle
    engine) and the batch handlers (run by the analytic engine) both read:

    * :attr:`value_array`, the per-vertex value T3 relaxes;
    * :attr:`weight_array`, the per-edge weight T2 adds, if any;
    * :meth:`carry`, the value T1 sends from the vertex's own.

    The paper's local frontier (a bitmap plus the IQ4 queue of pending
    blocks) is modeled as a per-vertex flag array ``in_frontier`` plus a
    per-tile frontier queue:

    * T3 calls :meth:`mark_frontier` when it improves a vertex -- the flag
      deduplicates, and in barrierless mode the vertex is also pushed onto
      the tile's local frontier queue;
    * in barrierless mode the TSU drains the local queue through T4 only
      when the tile has no other pending work (:meth:`refill_tile`, up to
      ``budget`` vertices as one T4 batch), which is what keeps asynchronous
      execution work-efficient in the paper;
    * in barrier mode :meth:`next_epoch` sweeps the flags into the next epoch's
      seeds (the global frontier swap): one T1 batch of the flagged vertices
      in vertex order.
    """

    #: Name of the exploration task that re-processes a frontier vertex.
    explore_task: str = "T1_explore"
    #: Name of the edge-chunk expansion task.
    expand_task: str = "T2_expand"
    #: Name of the relaxation task that updates the per-vertex value.
    relax_task: str = "T3_relax"
    #: Name of the task that pops a vertex from the local frontier.
    refrontier_task: str = "T4_refrontier"
    #: Name of the per-vertex frontier flag array.
    frontier_array: str = "in_frontier"
    #: Name of the per-vertex array T3 relaxes and :meth:`result` returns.
    value_array: str
    #: Name of the per-edge weight array T2 adds to the carried value, or
    #: ``None``.  A weight costs T2 one more read and one instruction per edge.
    weight_array: Optional[str] = None

    def carry(self, values):
        """The value T1 sends to the edge chunks, from the vertex's value.

        Called with one value by the scalar T1 and with an array by the
        batched one; BFS sends ``level + 1``.
        """
        return values

    @abstractmethod
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Initial contents of :attr:`value_array`."""

    # ----------------------------------------------------------------- program
    def build_program(self) -> DalorexProgram:
        # The handlers close over the declarations, read once here, so no
        # task looks one up; T2's loop is picked once, with or without weight.
        values, weights, flags = self.value_array, self.weight_array, self.frontier_array
        explore, expand, relax = self.explore_task, self.expand_task, self.relax_task
        carry, mark_frontier = self.carry, self.mark_frontier

        def t1_explore(ctx, vertex: int) -> None:
            value = ctx.read(values, vertex)
            begin = ctx.read("row_begin", vertex)
            degree = ctx.read("row_degree", vertex)
            ctx.compute(1)
            if degree > 0:
                ctx.invoke_range(expand, begin, begin + degree, carry(value))

        def t2_expand(ctx, begin: int, end: int, carried) -> None:
            for edge in range(begin, end):
                neighbor = ctx.read("edge_dst", edge)
                ctx.invoke(relax, neighbor, carried)
            ctx.count_edges(end - begin)

        def t2_expand_weighted(ctx, begin: int, end: int, carried) -> None:
            for edge in range(begin, end):
                neighbor = ctx.read("edge_dst", edge)
                weight = ctx.read(weights, edge)
                ctx.compute(1)
                ctx.invoke(relax, neighbor, carried + weight)
            ctx.count_edges(end - begin)

        def t3_relax(ctx, vertex: int, new) -> None:
            current = ctx.read(values, vertex)
            ctx.compute(1)
            if new < current:
                ctx.write(values, vertex, new)
                mark_frontier(ctx, vertex)

        def t4_refrontier(ctx, vertex: int) -> None:
            if ctx.read(flags, vertex):
                ctx.write(flags, vertex, 0)
                ctx.invoke(explore, vertex)

        program = DalorexProgram(self.name)
        program.add_array(values, VERTEX_SPACE, 4)
        program.add_array("row_begin", VERTEX_SPACE, 4)
        program.add_array("row_degree", VERTEX_SPACE, 4)
        program.add_array(flags, VERTEX_SPACE, 1)
        program.add_array("edge_dst", EDGE_SPACE, 4)
        if weights is not None:
            program.add_array(weights, EDGE_SPACE, 4)
        t2 = t2_expand if weights is None else t2_expand_weighted
        program.add_task(explore, t1_explore, VERTEX_SPACE, num_params=1, iq_capacity=32)
        program.add_task(expand, t2, EDGE_SPACE, num_params=3, iq_capacity=128)
        program.add_task(relax, t3_relax, VERTEX_SPACE, num_params=2, iq_capacity=2048)
        program.add_task(
            self.refrontier_task, t4_refrontier, VERTEX_SPACE, num_params=1, iq_capacity=512
        )
        return program

    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        arrays = {
            self.value_array: self.initial_values(graph),
            "row_begin": graph.indptr[:-1].astype(np.int64),
            "row_degree": graph.degrees().astype(np.int64),
            self.frontier_array: np.zeros(graph.num_vertices, dtype=np.uint8),
            "edge_dst": graph.indices.astype(np.int64),
        }
        if self.weight_array is not None:
            arrays[self.weight_array] = graph.values.astype(np.float64)
        return arrays

    def result(self, machine) -> np.ndarray:
        return machine.arrays[self.value_array].copy()

    # ---------------------------------------------------------------- frontier
    def mark_frontier(self, ctx, vertex: int) -> None:
        """Insert ``vertex`` into the executing tile's local frontier (deduplicated)."""
        if ctx.read(self.frontier_array, vertex):
            return
        ctx.write(self.frontier_array, vertex, 1)
        if not ctx.barrier:
            ctx.frontier_bucket().append(int(vertex))

    def refill_tile(self, machine, tile_id: int, budget: int) -> Optional[Seed]:
        queue = machine.state.frontier[tile_id]
        if not queue:
            return None
        vertices = np.array(queue[:budget], dtype=np.int64)
        del queue[:budget]
        return self.refrontier_task, (vertices,)

    def next_epoch(self, machine, epoch_index: int) -> Optional[Seed]:
        frontier = machine.arrays[self.frontier_array]
        vertices = np.nonzero(frontier)[0]
        if len(vertices) == 0:
            return None
        frontier[vertices] = 0
        return self.explore_task, (vertices,)

    # ------------------------------------------------------------- batch mode
    def batch_handlers(self, machine) -> Dict[str, object]:
        arrays = machine.arrays
        program = machine.program
        t1 = program.task(self.explore_task)
        t2 = program.task(self.expand_task)
        t3 = program.task(self.relax_task)
        values = arrays[self.value_array]
        weights = None if self.weight_array is None else arrays[self.weight_array]
        carry = self.carry
        row_begin = arrays["row_begin"]
        row_degree = arrays["row_degree"]
        edge_dst = arrays["edge_dst"]
        flags = arrays[self.frontier_array]
        edge_space = machine.placement.space(t2.route_space)
        vertex_space = machine.placement.space(t3.route_space)
        max_range = machine.config.max_range_per_message
        # Per edge, T2 reads the destination and the weight, and adds them.
        edge_reads, edge_compute = (1, 0) if weights is None else (2, 1)

        def run_t1(segment) -> BatchResult:
            verts = np.asarray(segment.params[0], dtype=np.int64)
            carried = carry(values[verts])
            begins = row_begin[verts]
            ends = begins + row_degree[verts]
            dests, piece_begin, piece_end, pieces = split_ranges(
                edge_space, begins, ends, max_range
            )
            reads = np.full(segment.n, 3, dtype=np.int64)
            writes = np.zeros(segment.n, dtype=np.int64)
            extra = 1 + t2.flits_per_invocation * pieces
            emits = None
            if len(dests):
                emits = (
                    t2,
                    dests,
                    (piece_begin, piece_end, np.repeat(carried, pieces)),
                    pieces,
                )
            return BatchResult(reads, writes, extra, emits=emits)

        def run_t2(segment) -> BatchResult:
            begins, ends, carried = segment.params
            flat, counts = concat_ranges(begins, ends)
            neighbors = edge_dst[flat]
            out_values = np.repeat(carried, counts)
            if weights is not None:
                out_values = out_values + weights[flat]
            reads = edge_reads * counts
            writes = np.zeros(segment.n, dtype=np.int64)
            extra = (edge_compute + t3.flits_per_invocation) * counts
            emits = None
            if len(neighbors):
                emits = (t3, vertex_space.owners_of(neighbors), (neighbors, out_values), counts)
            return BatchResult(reads, writes, extra, edges=counts, emits=emits)

        def run_t3(segment) -> BatchResult:
            verts = np.asarray(segment.params[0], dtype=np.int64)
            news = segment.params[1]
            # Pre-segment flag state: the only intra-segment flag write is by
            # a vertex's first improving item, which itself reads the
            # pre-segment value -- so one gather up front is exact.
            was_set = flags[verts] != 0
            improved, first = relax_min(values, verts, news)
            marks = first & ~was_set
            reads = 1 + improved.astype(np.int64)
            writes = improved.astype(np.int64) + marks
            extra = np.ones(segment.n, dtype=np.int64)
            if marks.any():
                flags[verts[marks]] = 1
                if not machine.barrier_effective:
                    frontier = machine.state.frontier
                    for tile, vertex in zip(segment.tiles[marks].tolist(), verts[marks].tolist()):
                        frontier[tile].append(vertex)
            return BatchResult(reads, writes, extra)

        def run_t4(segment) -> BatchResult:
            verts = np.asarray(segment.params[0], dtype=np.int64)
            # A duplicate vertex only acts on its first occurrence: that item
            # clears the flag, so later reads in the segment see 0.
            act = (flags[verts] != 0) & first_occurrences(verts)
            reads = np.ones(segment.n, dtype=np.int64)
            writes = act.astype(np.int64)
            extra = t1.flits_per_invocation * writes
            emits = None
            if act.any():
                flags[verts[act]] = 0
                acting = verts[act]
                emits = (t1, vertex_space.owners_of(acting), (acting,), writes)
            return BatchResult(reads, writes, extra, emits=emits)

        return {
            self.explore_task: run_t1,
            self.expand_task: run_t2,
            self.relax_task: run_t3,
            self.refrontier_task: run_t4,
        }


def all_vertex_seeds(task_name: str, graph: CSRGraph) -> Seed:
    """One seed invocation of ``task_name`` per vertex, in vertex order (used
    by PR, WCC, SPMV)."""
    return task_name, (np.arange(graph.num_vertices, dtype=np.int64),)

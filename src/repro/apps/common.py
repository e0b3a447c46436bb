"""Kernel base classes: the contract between applications and the machine.

A kernel packages everything the machine needs to run one application:

* the :class:`~repro.core.program.DalorexProgram` (array and task declarations
  plus the task handlers, i.e. the paper's per-tile binary),
* the initial contents of the distributed arrays,
* the initial work (e.g. the BFS root, or one task per vertex for SPMV),
* the per-epoch reseeding hook used when running with global barriers,
* a sequential reference used to validate the simulated output.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchResult, first_occurrences, relax_min, split_ranges
from repro.core.program import DalorexProgram
from repro.graph.csr import CSRGraph, concat_ranges

Seed = Tuple[str, tuple]


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
    def initial_tasks(self, graph: CSRGraph) -> List[Seed]:
        """Work items seeded before the first epoch, as ``(task_name, params)``."""

    def prepare_graph(self, graph: CSRGraph) -> CSRGraph:
        """Optionally transform the input graph (e.g. symmetrize it for WCC)."""
        return graph

    def extra_spaces(self, graph: CSRGraph) -> Dict[str, Tuple[int, str]]:
        """Index spaces beyond vertex/edge, as ``{name: (length, policy)}``."""
        return {}

    # -------------------------------------------------------------- execution
    def next_epoch(self, machine, epoch_index: int) -> Optional[List[Seed]]:
        """Work for the next barriered epoch, or ``None``/empty when converged.

        Only called when the machine runs with global barriers.  The default is
        a single-epoch program.
        """
        return None

    def refill_tile(self, machine, tile_id: int, budget: int) -> List[Seed]:
        """Work a tile can pull from its local frontier when it would otherwise idle.

        Only called in barrierless mode.  Refill draws only from the tile's
        local frontier bucket, ``machine.state.frontier[tile_id]``, so a
        tile whose bucket is empty has nothing to refill and the analytic
        engine does not ask it.  The default is no local refill
        (single-pass programs such as SPMV).
        """
        return []

    def batch_handlers(self, machine) -> Dict[str, object]:
        """Vectorized batch handlers, keyed by task name (``{}`` = scalar only).

        A handler receives a :class:`~repro.core.batch.Segment` of same-task
        invocations and returns a :class:`~repro.core.batch.BatchResult` whose
        array mutations and per-item accounting are bit-equal to running the
        scalar task handler once per item, in item order.  Handlers assume the
        data-local invariant the scalar handlers enforce (every built-in
        kernel routes accesses to the owning tile by construction).  The
        analytical engine batches only when every program task has a
        handler; otherwise it runs each segment's items through the scalar
        handlers.
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
    """Base class for frontier-driven graph algorithms (BFS, SSSP, WCC).

    The paper's local frontier (a bitmap plus the IQ4 queue of pending blocks)
    is modeled as a per-vertex flag array ``in_frontier`` plus a per-tile
    frontier queue:

    * the update task (T3) calls :meth:`mark_frontier` when it improves a
      vertex -- the flag deduplicates, and in barrierless mode the vertex is
      also pushed onto the tile's local frontier queue;
    * in barrierless mode the TSU drains the local queue through the
      re-exploration task (T4) only when the tile has no other pending work
      (:meth:`refill_tile`), which is what keeps asynchronous execution
      work-efficient in the paper;
    * in barrier mode :meth:`next_epoch` sweeps the flags into the next epoch's
      seeds (the global frontier swap).
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
    #: Name of the per-vertex value array T3 relaxes (set by subclasses to
    #: enable batched execution; ``None`` keeps the kernel scalar-only).
    batch_value_array: Optional[str] = None
    #: Scratchpad reads T2 performs per edge (SSSP also reads the weight).
    batch_t2_edge_reads: int = 1
    #: Compute instructions T2 charges per edge.
    batch_t2_edge_compute: int = 0

    def frontier_vertices(self, machine) -> np.ndarray:
        """Vertices currently flagged in the local frontiers."""
        return np.nonzero(machine.arrays[self.frontier_array])[0]

    def mark_frontier(self, ctx, vertex: int) -> None:
        """Insert ``vertex`` into the executing tile's local frontier (deduplicated)."""
        if ctx.read(self.frontier_array, vertex):
            return
        ctx.write(self.frontier_array, vertex, 1)
        if not ctx.barrier:
            ctx.frontier_bucket().append(int(vertex))

    def refill_tile(self, machine, tile_id: int, budget: int) -> List[Seed]:
        queue = machine.state.frontier[tile_id]
        if not queue:
            return []
        vertices = queue[:budget]
        del queue[:budget]
        return [(self.refrontier_task, (vertex,)) for vertex in vertices]

    def next_epoch(self, machine, epoch_index: int) -> Optional[List[Seed]]:
        frontier = machine.arrays[self.frontier_array]
        vertices = np.nonzero(frontier)[0]
        if len(vertices) == 0:
            return None
        frontier[vertices] = 0
        return [(self.explore_task, (int(vertex),)) for vertex in vertices]

    # ------------------------------------------------------------- batch mode
    def batch_t1_values(self, values: np.ndarray) -> np.ndarray:
        """Value each T1 item carries to its edge chunks (BFS sends level+1)."""
        return values

    def batch_t2_values(self, machine, flat_edges: np.ndarray, carried: np.ndarray) -> np.ndarray:
        """Per-edge value T2 emits to T3 (SSSP adds the edge weight)."""
        return carried

    def batch_handlers(self, machine) -> Dict[str, object]:
        if self.batch_value_array is None:
            return {}
        arrays = machine.arrays
        program = machine.program
        t1 = program.task(self.explore_task)
        t2 = program.task(self.expand_task)
        t3 = program.task(self.relax_task)
        values = arrays[self.batch_value_array]
        row_begin = arrays["row_begin"]
        row_degree = arrays["row_degree"]
        edge_dst = arrays["edge_dst"]
        flags = arrays[self.frontier_array]
        edge_space = machine.placement.space(t2.route_space)
        vertex_space = machine.placement.space(t3.route_space)
        max_range = machine.config.max_range_per_message
        edge_reads = self.batch_t2_edge_reads
        edge_compute = self.batch_t2_edge_compute

        def run_t1(segment) -> BatchResult:
            verts = np.asarray(segment.params[0], dtype=np.int64)
            carried = self.batch_t1_values(values[verts])
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
            out_values = self.batch_t2_values(machine, flat, np.repeat(carried, counts))
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
                    for item in np.flatnonzero(marks).tolist():
                        frontier[int(segment.tiles[item])].append(int(verts[item]))
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


def all_vertex_seeds(task_name: str, graph: CSRGraph) -> List[Seed]:
    """One seed invocation of ``task_name`` per vertex (used by PR, WCC, SPMV)."""
    return [(task_name, (vertex,)) for vertex in range(graph.num_vertices)]

"""Batch execution toolkit: numpy vectorization that is bit-equal to the loops.

A scalar task handler executes one invocation at a time through
:class:`~repro.core.context.TaskContext`.  Because the analytical engine's
worklist is a FIFO and every kernel task emits invocations of exactly one
downstream task, the worklist always drains in *runs* of same-task
invocations -- and a run can be executed as one numpy batch, provided the
batch reproduces the sequential semantics exactly:

* **Integer accounting** (instructions, reads, writes, edges, flits) is
  order-free: vector sums and ``np.add.at`` scatters are exact.
* **Float accumulators** (memory stalls, cache-hit fractions, flit
  millimeters) are order-*sensitive*: IEEE addition does not associate.  The
  helpers here reproduce the exact left-to-right folds the scalar loops
  perform -- ``np.add.accumulate`` is specified as an in-order accumulation,
  and ``np.add.at`` / ``np.minimum.at`` apply duplicate indices in element
  order, so both are bit-identical to the loops they replace.
* **Conditional relaxations** (the T3 ``if new < current`` pattern) depend on
  the order of intra-batch duplicates; :func:`relax_min` replays that order.

The :class:`Segment` / :class:`BatchResult` containers are the contract
between the engine (which owns accounting and message traffic) and the kernel
batch handlers (which own array semantics and emissions).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import concat_ranges


# --------------------------------------------------------------- float folds
def sequential_sum(initial: float, terms: np.ndarray) -> float:
    """Left-to-right IEEE fold: ``((initial + t0) + t1) + ...``.

    ``np.add.accumulate`` performs an in-order accumulation, so the result is
    bit-identical to the scalar ``+=`` loop it replaces -- unlike ``np.sum``,
    which is free to use pairwise summation.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if terms.size == 0:
        return float(initial)
    chain = np.concatenate((np.array([initial], dtype=np.float64), terms))
    return float(np.add.accumulate(chain)[-1])


def repeated_add_prefix(step: float, count: int) -> np.ndarray:
    """``prefix[k]`` = the value of ``k`` repeated additions of ``step`` to 0.0.

    The scalar memory model accumulates its per-access stall (and the
    fractional cache-hit/miss charges) by repeated addition, which is *not*
    ``k * step`` in IEEE arithmetic.  Indexing this table by an access count
    reproduces the repeated-addition value exactly.
    """
    prefix = np.empty(count + 1, dtype=np.float64)
    prefix[0] = 0.0
    if count:
        np.add.accumulate(np.full(count, step, dtype=np.float64), out=prefix[1:])
    return prefix


# ----------------------------------------------------------------- containers
class Segment:
    """One run of same-task invocations, in worklist order, as columns."""

    __slots__ = ("task", "tiles", "params", "gens", "remote", "n")

    def __init__(
        self,
        task,
        tiles: np.ndarray,
        params: Tuple[np.ndarray, ...],
        gens: np.ndarray,
        remote: np.ndarray,
    ) -> None:
        self.task = task
        self.tiles = tiles
        self.params = params
        self.gens = gens
        self.remote = remote
        self.n = len(tiles)


class BatchResult:
    """Per-item accounting plus emissions returned by a kernel batch handler.

    ``reads`` / ``writes`` count scratchpad accesses per item; ``extra`` is
    every instruction beyond the per-access charge (compute instructions plus
    the per-invocation flit-write charge); ``edges`` counts processed edges.
    ``emits`` is ``(out_task, dests, params_columns, counts_per_item)`` with
    messages laid out in invocation order, or ``None``.
    """

    __slots__ = ("reads", "writes", "extra", "edges", "emits")

    def __init__(self, reads, writes, extra, edges=None, emits=None) -> None:
        self.reads = reads
        self.writes = writes
        self.extra = extra
        self.edges = edges
        self.emits = emits


def segments_from_items(items: Sequence[Tuple]) -> List[Segment]:
    """Group ``(tile, task, params, gen, remote)`` items into same-task runs.

    Consecutive items sharing a task become one :class:`Segment`; run
    boundaries are semantically invisible (every batch replays sequential
    semantics), so the grouping only has to preserve item order.
    """
    segments: List[Segment] = []
    start = 0
    total = len(items)
    while start < total:
        task = items[start][1]
        end = start + 1
        while end < total and items[end][1] is task:
            end += 1
        run = items[start:end]
        tiles = np.fromiter((item[0] for item in run), dtype=np.int64, count=len(run))
        params = tuple(
            np.asarray([item[2][position] for item in run])
            for position in range(task.num_params)
        )
        gens = np.fromiter((item[3] for item in run), dtype=np.int64, count=len(run))
        remote = np.fromiter((item[4] for item in run), dtype=bool, count=len(run))
        segments.append(Segment(task, tiles, params, gens, remote))
        start = end
    return segments


# -------------------------------------------------------------- range helpers
def split_ranges(
    space_placement, begins: np.ndarray, ends: np.ndarray, max_range: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay ``TaskContext.invoke_range`` splitting for a batch of ranges.

    For every item the range is split at data-owner boundaries and then into
    ``max_range`` chunks, in the exact order the scalar path emits them.  One
    :meth:`~repro.core.placement.SpacePlacement.owners_of` call over every
    covered index finds the owner runs (a run ends where the owner changes
    or the item does), and each run is cut every ``max_range`` indices from
    its start.  Returns ``(dest_tiles, piece_begins, piece_ends,
    pieces_per_item)``.
    """
    begins = np.asarray(begins, dtype=np.int64)
    lengths = np.maximum(np.asarray(ends, dtype=np.int64) - begins, 0)
    flat, _ = concat_ranges(begins, begins + lengths)
    owners = space_placement.owners_of(flat)
    total = len(flat)
    item_ends = np.cumsum(lengths)
    run_start = np.zeros(total, dtype=bool)
    run_start[(item_ends - lengths)[lengths > 0]] = True
    run_start[1:] |= owners[1:] != owners[:-1]
    runs = np.flatnonzero(run_start)
    run_ends = np.append(runs[1:], total)
    run_pieces = -(-(run_ends - runs) // max_range)
    piece_run = np.repeat(np.arange(len(runs)), run_pieces)
    first_piece = np.cumsum(run_pieces) - run_pieces
    starts = runs[piece_run] + max_range * (np.arange(len(piece_run)) - first_piece[piece_run])
    stops = np.minimum(starts + max_range, run_ends[piece_run])
    piece_begin = flat[starts]
    run_item = np.searchsorted(item_ends, runs, side="right")
    return (
        owners[starts],
        piece_begin,
        piece_begin + (stops - starts),
        np.bincount(run_item[piece_run], minlength=len(begins)),
    )


# ------------------------------------------------------------------ relaxation
def relax_min(
    values: np.ndarray, vertices: np.ndarray, news: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact sequential min-relaxation of one batch, applied to ``values``.

    Reproduces, bit for bit, the loop::

        for i in range(n):
            if news[i] < values[vertices[i]]:
                values[vertices[i]] = news[i]

    Returns ``(improved, first_improving)`` boolean arrays in the original
    item order: ``improved[i]`` is the loop's comparison outcome at step ``i``
    (against the value *including* earlier intra-batch updates), and
    ``first_improving[i]`` marks the item that made its vertex's first
    improvement of the batch (the item whose ``mark_frontier`` can observe an
    unset flag).
    """
    n = len(vertices)
    improved = np.zeros(n, dtype=bool)
    first = np.zeros(n, dtype=bool)
    if n == 0:
        return improved, first
    order = np.argsort(vertices, kind="stable")
    v_sorted = vertices[order]
    new_sorted = news[order]
    group_start = np.ones(n, dtype=bool)
    group_start[1:] = v_sorted[1:] != v_sorted[:-1]
    imp_sorted = new_sorted < values[v_sorted]
    starts = np.flatnonzero(group_start)
    sizes = np.diff(np.append(starts, n))
    multi = sizes > 1
    if multi.any():
        # Duplicate vertices: each later item compares against the running
        # minimum of its group's earlier improvements, exactly as the loop.
        for start, size in zip(starts[multi].tolist(), sizes[multi].tolist()):
            current = values[v_sorted[start]]
            for j in range(start, start + size):
                if new_sorted[j] < current:
                    imp_sorted[j] = True
                    current = new_sorted[j]
                else:
                    imp_sorted[j] = False
    # np.minimum.at applies duplicates in element order; the final value per
    # vertex is the minimum of its improving news, identical to the loop.
    np.minimum.at(values, v_sorted[imp_sorted], new_sorted[imp_sorted])
    improved[order] = imp_sorted
    # First improving item of each group: improving with no earlier improving
    # item in the same group.
    imp_int = imp_sorted.astype(np.int64)
    cum = np.cumsum(imp_int)
    group_base = np.repeat(cum[starts] - imp_int[starts], sizes)
    first[order] = imp_sorted & ((cum - imp_int - group_base) == 0)
    return improved, first


def first_occurrences(indices: np.ndarray) -> np.ndarray:
    """Boolean mask of the first occurrence of every value, in item order."""
    n = len(indices)
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.argsort(indices, kind="stable")
    sorted_vals = indices[order]
    is_first = np.ones(n, dtype=bool)
    is_first[1:] = sorted_vals[1:] != sorted_vals[:-1]
    mask[order] = is_first
    return mask

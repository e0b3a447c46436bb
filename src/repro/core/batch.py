"""Batch execution toolkit: numpy vectorization that is bit-equal to the loops.

A scalar task handler executes one invocation at a time through
:class:`~repro.core.context.TaskContext`, as the cycle engine runs it.
Because the analytical engine's worklist is a FIFO and every kernel task
emits invocations of exactly one downstream task, the worklist always drains
in *runs* of same-task invocations -- and the analytic engine executes every
run as one numpy batch, which reproduces the sequential semantics exactly:

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
batch handlers (which own array semantics and emissions); a :data:`Seed`
batch is the contract between a kernel's seeding hooks and the engines.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import concat_ranges

#: A batch of seed invocations of one task: ``(task_name, columns)``, with
#: one array per task parameter (int64 for every built-in kernel) and one
#: entry per invocation, in invocation order.
Seed = Tuple[str, Tuple[np.ndarray, ...]]


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


def seed_segment(task, tiles: np.ndarray, params: Tuple[np.ndarray, ...]) -> Segment:
    """The segment of seeded or refilled invocations bound for ``tiles``:
    generation 0, none arrived remotely."""
    n = len(tiles)
    return Segment(task, tiles, params, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))


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
def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for an integer array.

    Sorts the distinct keys ``(key - min) * n + position`` instead: with no
    ties every sort gives the stable order, and numpy's default sort is
    several times faster than its stable one on int64.  Falls back to the
    stable sort when those keys would overflow int64.
    """
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    low = int(keys.min())
    if (int(keys.max()) - low + 1) > np.iinfo(np.int64).max // n:
        return np.argsort(keys, kind="stable")
    distinct = np.subtract(keys, low, dtype=np.int64)
    distinct *= n
    distinct += np.arange(n, dtype=np.int64)
    return np.argsort(distinct)


def relax_min(
    values: np.ndarray, vertices: np.ndarray, news: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact sequential min-relaxation of one batch, applied to ``values``.

    Reproduces, bit for bit, the loop::

        for i in range(n):
            if news[i] < values[vertices[i]]:
                values[vertices[i]] = news[i]

    for NaN-free ``values`` and ``news``.  Returns ``(improved,
    first_improving)`` boolean arrays in the original item order:
    ``improved[i]`` is the loop's comparison outcome at step ``i`` (against
    the value *including* earlier intra-batch updates), and
    ``first_improving[i]`` marks the item that made its vertex's first
    improvement of the batch (the item whose ``mark_frontier`` can observe an
    unset flag).

    Item ``i`` improves when ``news[i]`` is below its vertex's value before
    the batch and below every earlier news of that vertex (a segmented
    exclusive prefix minimum, :func:`_below_earlier`).  Each improvement is
    below the one before, so a vertex ends at its last improving news.
    """
    n = len(vertices)
    improved = np.zeros(n, dtype=bool)
    first = np.zeros(n, dtype=bool)
    if n == 0:
        return improved, first
    # Stable: each vertex's group keeps item order.
    order = stable_argsort(vertices)
    v_sorted = vertices[order]
    new_sorted = news[order]
    group_start = np.ones(n, dtype=bool)
    np.not_equal(v_sorted[1:], v_sorted[:-1], out=group_start[1:])
    imp_sorted = new_sorted < values[v_sorted]
    starts = np.flatnonzero(group_start)
    sizes = np.diff(np.append(starts, n))
    duplicated = np.flatnonzero(np.repeat(sizes > 1, sizes))
    if len(duplicated):
        imp_sorted[duplicated] &= _below_earlier(
            new_sorted[duplicated], group_start[duplicated]
        )
    improving = np.flatnonzero(imp_sorted)
    touched = v_sorted[improving]
    first_of = np.ones(len(improving), dtype=bool)
    np.not_equal(touched[1:], touched[:-1], out=first_of[1:])
    last_of = np.ones(len(improving), dtype=bool)
    last_of[:-1] = first_of[1:]
    # One write per vertex, so no duplicate index leaves the order open.
    values[touched[last_of]] = new_sorted[improving[last_of]]
    improved[order[improving]] = True
    first[order[improving[first_of]]] = True
    return improved, first


def _below_earlier(news: np.ndarray, group_start: np.ndarray) -> np.ndarray:
    """Per item: is ``news`` strictly below every earlier item of its group?

    Groups are runs that begin where ``group_start`` is set; a group's first
    item has no earlier item, so it is below.  The news become dense ranks
    (equal values, ``-0.0`` and ``0.0`` included, share a rank, so ``<``
    on ranks is ``<`` on values), each group's ranks are offset below every
    earlier group's, and one ``np.minimum.accumulate`` then runs each
    group's minimum from its own first item.
    """
    n = len(news)
    order = np.argsort(news)
    ranked = news[order]
    dense = np.zeros(n, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=dense[1:])
    del ranked
    key = np.cumsum(group_start, dtype=np.int64)
    np.subtract(key[-1], key, out=key)
    key *= dense[-1] + 1
    key[order] += dense
    running = np.minimum.accumulate(key)
    below = np.ones(n, dtype=bool)
    np.less(key[1:], running[:-1], out=below[1:])
    return below


def first_occurrences(indices: np.ndarray) -> np.ndarray:
    """Boolean mask of the first occurrence of every value, in item order."""
    n = len(indices)
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = stable_argsort(indices)
    sorted_vals = indices[order]
    is_first = np.ones(n, dtype=bool)
    is_first[1:] = sorted_vals[1:] != sorted_vals[:-1]
    mask[order] = is_first
    return mask

"""Per-item loops of the batch toolkit, the placements and seeding, kept as
test oracles.

``split_ranges`` finds owner runs with array arithmetic over ``owners_of``,
``SpacePlacement.per_tile_counts`` is closed form per placement,
``relax_min`` is a segmented prefix minimum, and the engines take seeds as
one ``(task_name, columns)`` batch, resolved with one ``owners_of`` call and
charged with one ``bincount``.  This module keeps the loops those replaced:
per item over ``contiguous_ranges``, per tile over ``chunk_length``, per
duplicate-vertex group item by item, and per seed over ``(task_name,
params)`` tuples (:class:`PerSeedSeeding`), plus the grouping of single
invocations into same-task segments (:func:`segments_from_items`).  The
tests require bit-equal results.
"""

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.core.batch import Segment
from repro.errors import SimulationError


def split_ranges(space_placement, begins, ends, max_range):
    """Split every ``[begin, end)`` at owner boundaries, then into
    ``max_range`` chunks, one item at a time."""
    dests, piece_begin, piece_end = [], [], []
    counts = np.zeros(len(begins), dtype=np.int64)
    for item, (begin, end) in enumerate(zip(begins.tolist(), ends.tolist())):
        if begin >= end:
            continue
        pieces = 0
        for tile, sub_begin, sub_end in space_placement.contiguous_ranges(begin, end):
            cursor = sub_begin
            while cursor < sub_end:
                chunk_end = min(sub_end, cursor + max_range)
                dests.append(tile)
                piece_begin.append(cursor)
                piece_end.append(chunk_end)
                cursor = chunk_end
                pieces += 1
        counts[item] = pieces
    return (
        np.asarray(dests, dtype=np.int64),
        np.asarray(piece_begin, dtype=np.int64),
        np.asarray(piece_end, dtype=np.int64),
        counts,
    )


def per_tile_counts(space_placement):
    """Element count per tile, one ``chunk_length`` call per tile."""
    return np.array(
        [space_placement.chunk_length(t) for t in range(space_placement.num_tiles)],
        dtype=np.int64,
    )


def relax_min(values, vertices, news):
    """``repro.core.batch.relax_min`` walking every group of duplicate
    vertices item by item, and applying the improvements with
    ``np.minimum.at``."""
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


def segments_from_items(items):
    """Group ``(tile, task, params, gen, remote)`` items into same-task
    ``Segment`` runs, in item order."""
    segments = []
    for task, run in groupby(items, key=itemgetter(1)):
        tiles, _tasks, params, gens, remote = zip(*run)
        segments.append(Segment(
            task,
            np.array(tiles, dtype=np.int64),
            tuple(np.asarray(column) for column in zip(*params)),
            np.array(gens, dtype=np.int64),
            np.array(remote, dtype=bool),
        ))
    return segments


def seed_tuples(seeds):
    """A seed batch as per-seed ``(task_name, params)`` tuples, each
    ``params`` a tuple of Python scalars; ``[]`` for no batch."""
    if seeds is None:
        return []
    task_name, columns = seeds
    return [
        (task_name, params)
        for params in zip(*(np.asarray(column).tolist() for column in columns))
    ]


class PerSeedSeeding:
    """Engine mixin: the per-seed ``resolve_seeds``, ``resolve_refill`` and
    ``charge_epoch_seeding`` loops over ``(task_name, params)`` tuples."""

    def resolve_seeds(self, seeds):
        """Map ``(task_name, params)`` seeds to ``(tile, task, params)``."""
        resolved = []
        for task_name, params in seeds:
            task = self.program.task(task_name)
            params = tuple(params)
            if len(params) != task.num_params:
                raise SimulationError(
                    f"seed for task {task_name!r} has {len(params)} parameters, "
                    f"expected {task.num_params}"
                )
            destination = self.placement.owner(task.route_space, int(params[0]))
            resolved.append((destination, task, params))
            self.tracer.record_seeds(task, 1)
        return resolved

    def resolve_refill(self, tile_id):
        """One tile's refill as ``(task, params)`` tuples."""
        seeds = seed_tuples(self.kernel.refill_tile(
            self.machine, tile_id, self.config.frontier_refill_batch
        ))
        resolved = [(self.program.task(task_name), params) for task_name, params in seeds]
        for task, _params in resolved:
            self.tracer.record_refill(task, 1)
        return resolved

    def charge_epoch_seeding(self, resolved_seeds):
        """Charge every resolved seed's re-exploration cost, one at a time."""
        per_tile = np.zeros(self.config.num_tiles, dtype=np.float64)
        cost = self.config.epoch_seed_instructions
        pu_instructions = self.state.pu_instructions
        for tile_id, _task, _params in resolved_seeds:
            per_tile[tile_id] += cost
            self.counters.instructions += cost
            pu_instructions[tile_id] += cost
        return per_tile

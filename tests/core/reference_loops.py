"""Per-item placement loops, kept as test oracles.

``split_ranges`` finds owner runs with array arithmetic over ``owners_of``
and ``SpacePlacement.per_tile_counts`` is closed form per placement.  This
module keeps the loops those replaced: per item over ``contiguous_ranges``
and per tile over ``chunk_length``.  The tests require bit-equal results.
"""

import numpy as np


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


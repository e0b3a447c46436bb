"""Per-tile utilization grids and ASCII heatmap rendering.

Fig. 10 of the paper shows PU and router utilization heatmaps for mesh vs torus;
this module provides the grid-shaped summaries and a plain-text renderer so the
experiment runners can print them without plotting dependencies.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.noc.topology import Topology


def utilization_grid(per_tile: Sequence[float], topology: Topology) -> np.ndarray:
    """Reshape a per-tile metric into the (height x width) physical grid."""
    values = np.asarray(per_tile, dtype=np.float64)
    return values.reshape(topology.height, topology.width)


def ascii_heatmap(
    grid: np.ndarray,
    title: str = "",
    max_value: Optional[float] = None,
    width: int = 4,
) -> str:
    """Render a 2D array as a text heatmap with one cell per tile.

    Values are printed as integer percentages of ``max_value`` (or of the grid
    maximum when not given), mirroring the 0-100% color scale in Fig. 10.
    """
    grid = np.asarray(grid, dtype=np.float64)
    peak = max_value if max_value is not None else (grid.max() if grid.size else 1.0)
    peak = peak if peak > 0 else 1.0
    lines = []
    if title:
        lines.append(title)
    for row in grid:
        cells = [f"{int(round(100.0 * value / peak)):>{width}d}" for value in row]
        lines.append("".join(cells))
    return "\n".join(lines)

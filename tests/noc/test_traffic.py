"""Unit tests for per-tile utilization grids and ASCII heatmaps."""

import numpy as np

from repro.noc.topology import Mesh2D
from repro.noc.traffic import ascii_heatmap, utilization_grid


class TestHeatmap:
    def test_utilization_grid_shape(self):
        topo = Mesh2D(4, 2)
        grid = utilization_grid(np.arange(8), topo)
        assert grid.shape == (2, 4)

    def test_ascii_heatmap_rows(self):
        grid = np.array([[0.0, 50.0], [100.0, 25.0]])
        text = ascii_heatmap(grid, title="demo", max_value=100.0)
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 3
        assert "100" in lines[2]

    def test_ascii_heatmap_handles_zero_grid(self):
        text = ascii_heatmap(np.zeros((2, 2)))
        assert "0" in text

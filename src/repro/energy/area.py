"""Chip area and power-density model.

Reproduces the paper's area comparison: a 16x16 Dalorex grid with 4.2 MB tiles
occupies about 305 mm^2, versus roughly 3616 mm^2 for the sixteen HMC cubes of
the Tesseract configuration; and checks that Dalorex power density stays far
below air-cooling limits (< 300 mW/mm^2 in all the paper's experiments).
"""

from __future__ import annotations

import math

from repro.energy.technology import DEFAULT_TECHNOLOGY, TechnologyParameters

#: Router+wiring area relative to a mesh, by NoC kind.
_NOC_AREA_FACTORS = {
    "mesh": 1.0,
    "torus": 1.5,
    "torus_ruche": 4.5,
    "mesh3d": 1.2,
    "torus3d": 1.7,
}


class AreaModel:
    """Area of tiles, chips, and the HMC-based baseline."""

    def __init__(self, technology: TechnologyParameters = DEFAULT_TECHNOLOGY) -> None:
        self.technology = technology

    # ------------------------------------------------------------------ tiles
    def noc_area_factor(self, noc: str) -> float:
        return _NOC_AREA_FACTORS.get(noc, 1.0)

    def tile_area_mm2(self, sram_bytes_per_tile: float, noc: str = "torus") -> float:
        """Area of one Dalorex tile: scratchpad + PU + router share."""
        sram = self.technology.sram_area_mm2(sram_bytes_per_tile)
        router = self.technology.router_area_mm2 * self.noc_area_factor(noc)
        return sram + self.technology.pu_area_mm2 + router

    def tile_pitch_mm(self, sram_bytes_per_tile: float, noc: str = "torus") -> float:
        """Side length of a (square) tile, used as the NoC hop wire length."""
        return math.sqrt(self.tile_area_mm2(sram_bytes_per_tile, noc))

    def chip_area_mm2(self, num_tiles: int, sram_bytes_per_tile: float, noc: str = "torus") -> float:
        """Total die area of a Dalorex chip."""
        return num_tiles * self.tile_area_mm2(sram_bytes_per_tile, noc)

    # --------------------------------------------------------------- baseline
    def hmc_area_mm2(self, num_cores: int) -> float:
        """Aggregate area of the HMC cubes needed for ``num_cores`` PIM cores."""
        cubes = math.ceil(num_cores / self.technology.cores_per_hmc_cube)
        return cubes * self.technology.hmc_cube_area_mm2

    # ----------------------------------------------------------------- power
    def power_density_w_per_mm2(self, power_w: float, area_mm2: float) -> float:
        if area_mm2 <= 0:
            return 0.0
        return power_w / area_mm2

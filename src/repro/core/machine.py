"""DalorexMachine: ties a configuration, a kernel and a graph into a runnable system.

Construction performs what the paper's host CPU does before launching a
program: it distributes every data array in equal chunks across the tiles,
broadcasts the program (task declarations and queue sizes) and sizes the
per-tile scratchpads.  :meth:`DalorexMachine.run` then executes the program on
the configured engine and returns a :class:`~repro.core.results.SimulationResult`
annotated with energy and area.

A machine instance runs once: task execution mutates the distributed arrays in
place (that is the output of the program), so build a fresh machine per run.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.config import MachineConfig
from repro.core.placement import DataPlacement
from repro.core.program import EDGE_SPACE, VERTEX_SPACE
from repro.core.results import SimulationResult
from repro.core.state import CoreState
from repro.energy.area import AreaModel
from repro.energy.model import EnergyModel
from repro.energy.technology import DEFAULT_TECHNOLOGY, TechnologyParameters
from repro.errors import ConfigurationError, ProgramError
from repro.graph.csr import CSRGraph
from repro.noc.topology import cached_topology


class DalorexMachine:
    """A configured grid of tiles ready to execute one kernel on one graph."""

    def __init__(
        self,
        config: MachineConfig,
        kernel,
        graph: CSRGraph,
        dataset_name: Optional[str] = None,
        technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
    ) -> None:
        self.config = config.validate()
        self.kernel = kernel
        self.graph = kernel.prepare_graph(graph)
        self.dataset_name = dataset_name or graph.name
        self.technology = technology
        # Invariant tracing: set detailed_trace=True before run() for the
        # opt-in per-epoch trace; the engine publishes its tracer here so
        # callers can inspect the traced task flow after the run.  The cycle
        # engine likewise publishes its network model and link-load model so
        # the network conformance oracle can inspect them after run().
        self.detailed_trace = False
        self.tracer = None
        self.network = None
        self.link_model = None
        self.barrier_effective = config.barrier or kernel.requires_barrier
        # Batched (vectorized) task execution on engines that support it.
        # Bit-equal to scalar execution by construction; set False to run
        # every segment one invocation at a time (the equivalence tests
        # exercise both).
        self.batch_execution = True

        # Topologies are immutable, so machines share one instance per shape.
        self.topology = cached_topology(
            config.noc, config.width, config.height, config.ruche_factor,
            depth=config.depth,
        )
        self.program = kernel.build_program()
        self.placement = self._build_placement()
        self.program.validate(known_spaces=list(self.placement.spaces))
        self.arrays = self._build_arrays()
        # All mutable per-tile state (queues, PU/TSU state, frontier buckets,
        # NoC port times) lives in flat columns; see repro.core.state.
        self.state = CoreState(
            config.num_tiles, self.program.iq_capacities(), config.scheduling
        )
        self.scratchpad_bytes = self._scratchpad_bytes()

        self.area_model = AreaModel(technology)
        self.energy_model = EnergyModel(technology)
        self.tile_pitch_mm = self.area_model.tile_pitch_mm(
            self.sram_bytes_per_tile(), config.noc
        )
        self._ran = False

    # --------------------------------------------------------------- building
    def _build_placement(self) -> DataPlacement:
        placement = DataPlacement(self.config.num_tiles)
        spaces = self.program.spaces()
        extra_spaces = self.kernel.extra_spaces(self.graph)
        for space in spaces:
            if space == VERTEX_SPACE:
                placement.add_space(
                    space, self.graph.num_vertices, self.config.vertex_placement
                )
            elif space == EDGE_SPACE:
                owner_map = None
                if self.config.edge_placement == "row":
                    owner_map = self._row_owner_map()
                placement.add_space(
                    space,
                    self.graph.num_edges,
                    self.config.edge_placement,
                    owner_map=owner_map,
                )
            elif space in extra_spaces:
                length, policy = extra_spaces[space]
                placement.add_space(space, length, policy)
            else:
                raise ConfigurationError(
                    f"kernel {self.kernel.name!r} uses unknown index space {space!r}"
                )
        return placement

    def _row_owner_map(self) -> np.ndarray:
        """Owner tile of each edge when edges are co-located with their source row."""
        sources = self.graph.edge_sources()
        num_tiles = self.config.num_tiles
        if self.config.vertex_placement == "interleave":
            return sources % num_tiles
        chunk = max(1, -(-self.graph.num_vertices // num_tiles))
        return np.minimum(sources // chunk, num_tiles - 1)

    def _build_arrays(self) -> Dict[str, np.ndarray]:
        arrays = self.kernel.initial_arrays(self.graph)
        for name, spec in self.program.arrays.items():
            if name not in arrays:
                raise ProgramError(f"kernel did not initialize declared array {name!r}")
            expected = self.placement.length(spec.space)
            if len(arrays[name]) != expected:
                raise ProgramError(
                    f"array {name!r} has length {len(arrays[name])}, expected {expected} "
                    f"(space {spec.space!r})"
                )
        return arrays

    def _scratchpad_bytes(self) -> np.ndarray:
        """Bytes each tile's scratchpad holds: its chunk of every array, the
        task code and the queue storage."""
        per_tile = np.zeros(self.config.num_tiles, dtype=np.int64)
        for spec in self.program.arrays.values():
            counts = self.placement.space(spec.space).per_tile_counts()
            per_tile += counts * spec.entry_bytes
        return per_tile + (self.config.code_region_bytes + self.config.queue_region_bytes)

    # ----------------------------------------------------------------- sizing
    def sram_bytes_per_tile(self) -> int:
        """Provisioned (or required) scratchpad bytes per tile."""
        if self.config.scratchpad_bytes_per_tile is not None:
            return self.config.scratchpad_bytes_per_tile
        return int(self.scratchpad_bytes.max())

    def dataset_fits(self) -> bool:
        """True when every tile's chunk fits its provisioned scratchpad."""
        capacity = self.config.scratchpad_bytes_per_tile
        return capacity is None or int(self.scratchpad_bytes.max()) <= capacity

    def chip_area_mm2(self) -> float:
        return self.area_model.chip_area_mm2(
            self.config.num_tiles, self.sram_bytes_per_tile(), self.config.noc
        )

    # -------------------------------------------------------------------- run
    def run(self, compute_energy: bool = True, verify: bool = False) -> SimulationResult:
        """Execute the kernel and return the simulation result.

        Args:
            compute_energy: attach the energy breakdown and chip area.
            verify: compare the program output against the sequential reference
                and record the outcome in ``result.verified``.
        """
        if self._ran:
            raise ConfigurationError(
                "this machine has already run; task execution mutates the data arrays, "
                "so build a fresh DalorexMachine for another run"
            )
        self._ran = True
        engine = self._make_engine()
        result = engine.run()
        if compute_energy:
            self.energy_model.attach(result, self.config)
            if self.config.memory == "sram":
                result.chip_area_mm2 = self.chip_area_mm2()
            else:
                result.chip_area_mm2 = self.area_model.hmc_area_mm2(self.config.num_tiles)
        if verify:
            result.verified = bool(self.kernel.verify(self))
        return result

    def _make_engine(self):
        """The engine ``config.engine`` names (``validate()`` admits no other)."""
        # Imported here: the engines import repro.verify, which imports this module.
        from repro.core.engine_analytic import AnalyticalEngine
        from repro.core.engine_cycle import CycleEngine

        engine_class = AnalyticalEngine if self.config.engine == "analytic" else CycleEngine
        return engine_class(self)


def run_kernel(
    config: MachineConfig,
    kernel,
    graph: CSRGraph,
    dataset_name: Optional[str] = None,
    verify: bool = False,
) -> SimulationResult:
    """Convenience helper: build a machine, run it once, return the result."""
    machine = DalorexMachine(config, kernel, graph, dataset_name=dataset_name)
    return machine.run(verify=verify)

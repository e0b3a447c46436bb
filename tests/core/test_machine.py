"""Unit tests for machine construction and lifecycle."""

import numpy as np
import pytest

from repro.apps import BFSKernel, SSSPKernel, make_kernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine, run_kernel
from repro.errors import ConfigurationError
from repro.graph.generators import chain_graph, rmat_graph


def make_machine(**overrides):
    config = MachineConfig(width=2, height=2, engine="analytic").with_overrides(**overrides)
    return DalorexMachine(config, BFSKernel(root=0), chain_graph(12, weighted=True))


class TestConstruction:
    def test_arrays_initialized(self):
        machine = make_machine()
        assert set(machine.arrays) >= {"level", "row_begin", "row_degree", "edge_dst"}
        assert len(machine.arrays["level"]) == machine.graph.num_vertices

    def test_placement_spaces_bound(self):
        machine = make_machine()
        assert machine.placement.length("vertex") == machine.graph.num_vertices
        assert machine.placement.length("edge") == machine.graph.num_edges

    def test_row_edge_placement_follows_vertex_owner(self):
        machine = make_machine(edge_placement="row", vertex_placement="block")
        graph = machine.graph
        sources = graph.edge_sources()
        for edge in range(0, graph.num_edges, 3):
            vertex_owner = machine.placement.owner("vertex", int(sources[edge]))
            assert machine.placement.owner("edge", edge) == vertex_owner

    def test_sram_bytes_per_tile_auto_sized(self):
        machine = make_machine()
        assert machine.sram_bytes_per_tile() > 0

    def test_sram_bytes_per_tile_configured(self):
        machine = make_machine(scratchpad_bytes_per_tile=1 << 20)
        assert machine.sram_bytes_per_tile() == 1 << 20

    def test_dataset_fits_with_large_scratchpad(self):
        machine = make_machine(scratchpad_bytes_per_tile=1 << 22)
        assert machine.dataset_fits()

    def test_chip_area_positive(self):
        assert make_machine().chip_area_mm2() > 0

    def test_barrier_effective_respects_kernel(self):
        from repro.apps import PageRankKernel

        config = MachineConfig(width=2, height=2, engine="analytic", barrier=False)
        machine = DalorexMachine(config, PageRankKernel(num_iterations=2), chain_graph(8))
        assert machine.barrier_effective


def footprint_bytes(machine) -> np.ndarray:
    """Each tile's scratchpad bytes, summed here from the placement: its
    chunk of every program array plus the code and queue regions."""
    config = machine.config
    per_tile = np.zeros(config.num_tiles, dtype=np.int64)
    for spec in machine.program.arrays.values():
        counts = machine.placement.space(spec.space).per_tile_counts()
        per_tile += counts * spec.entry_bytes
    return per_tile + config.code_region_bytes + config.queue_region_bytes


class TestScratchpadSizing:
    @pytest.mark.parametrize("edge_placement", ["block", "interleave", "row"])
    def test_auto_size_is_the_largest_tile_footprint(self, edge_placement):
        config = MachineConfig(
            width=4, height=2, engine="analytic", edge_placement=edge_placement
        )
        machine = DalorexMachine(config, SSSPKernel(root=0), rmat_graph(7, seed=2))
        assert machine.sram_bytes_per_tile() == int(footprint_bytes(machine).max())

    def test_dataset_fits_at_exact_capacity(self):
        needed = int(footprint_bytes(make_machine()).max())
        assert make_machine(scratchpad_bytes_per_tile=needed).dataset_fits()

    def test_dataset_does_not_fit_one_byte_short(self):
        needed = int(footprint_bytes(make_machine()).max())
        machine = make_machine(scratchpad_bytes_per_tile=needed - 1)
        assert not machine.dataset_fits()
        assert machine.sram_bytes_per_tile() == needed - 1

    def test_auto_sized_machine_fits(self):
        assert make_machine().dataset_fits()

    @pytest.mark.parametrize("app", ["bfs", "sssp", "pagerank", "wcc", "spmv"])
    def test_every_tile_holds_its_footprint(self, app):
        graph = rmat_graph(7, seed=2)
        kwargs = {"root": 0} if app in ("bfs", "sssp") else {}
        config = MachineConfig(width=4, height=2, engine="analytic")
        machine = DalorexMachine(config, make_kernel(app, **kwargs), graph)
        assert machine.scratchpad_bytes.dtype == np.int64
        assert np.array_equal(machine.scratchpad_bytes, footprint_bytes(machine))

    @pytest.mark.parametrize("vertex_placement", ["block", "interleave"])
    def test_vertex_placement_sets_the_footprint(self, vertex_placement):
        config = MachineConfig(
            width=4, height=2, engine="analytic", vertex_placement=vertex_placement
        )
        machine = DalorexMachine(config, SSSPKernel(root=0), rmat_graph(7, seed=2))
        assert np.array_equal(machine.scratchpad_bytes, footprint_bytes(machine))
        assert machine.sram_bytes_per_tile() == int(footprint_bytes(machine).max())

    @pytest.mark.parametrize("edge_placement", ["block", "interleave", "row"])
    def test_placement_conserves_total_bytes(self, edge_placement):
        # Placement moves array chunks between tiles; it creates no bytes.
        config = MachineConfig(
            width=4, height=2, engine="analytic", edge_placement=edge_placement
        )
        machine = DalorexMachine(config, SSSPKernel(root=0), rmat_graph(7, seed=2))
        data = sum(
            machine.placement.length(spec.space) * spec.entry_bytes
            for spec in machine.program.arrays.values()
        )
        regions = config.num_tiles * (config.code_region_bytes + config.queue_region_bytes)
        assert int(machine.scratchpad_bytes.sum()) == data + regions

    def test_regions_are_added_to_every_tile(self):
        base = make_machine().scratchpad_bytes
        grown = make_machine(code_region_bytes=8 * 1024, queue_region_bytes=20 * 1024)
        assert np.array_equal(grown.scratchpad_bytes - base, np.full(len(base), 8 * 1024))

    def test_chip_area_follows_the_provisioned_scratchpad(self):
        small = make_machine(scratchpad_bytes_per_tile=1 << 20).chip_area_mm2()
        large = make_machine(scratchpad_bytes_per_tile=1 << 22).chip_area_mm2()
        assert large > small


class TestCoreStateShape:
    def test_one_queue_column_per_program_task(self):
        machine = make_machine(scheduling="round_robin")
        state = machine.state
        capacities = machine.program.iq_capacities()
        assert state.num_tiles == machine.config.num_tiles
        assert state.num_tasks == len(machine.program.tasks)
        assert state.queue_capacity == [capacities[task] for task in range(state.num_tasks)]
        assert state.scheduling_policy == "round_robin"


class TestRun:
    def test_run_produces_verified_result(self):
        result = make_machine().run(verify=True)
        assert result.verified is True
        assert result.cycles > 0
        assert result.energy.total_j > 0

    def test_run_twice_rejected(self):
        machine = make_machine()
        machine.run()
        with pytest.raises(ConfigurationError):
            machine.run()

    def test_run_kernel_helper(self):
        config = MachineConfig(width=2, height=2, engine="cycle")
        result = run_kernel(config, SSSPKernel(root=0), chain_graph(10, weighted=True), verify=True)
        assert result.verified is True

    def test_outputs_attached_to_result(self):
        result = make_machine().run()
        assert "level" in result.outputs
        assert len(result.outputs["level"]) == 12

    def test_result_records_dataset_and_config(self):
        config = MachineConfig(name="my-config", width=2, height=2, engine="analytic")
        machine = DalorexMachine(config, BFSKernel(root=0), rmat_graph(5, seed=1), dataset_name="tiny")
        result = machine.run()
        assert result.config_name == "my-config"
        assert result.dataset_name == "tiny"

    def test_energy_skipped_when_disabled(self):
        result = make_machine().run(compute_energy=False)
        assert result.energy.total_j == 0.0

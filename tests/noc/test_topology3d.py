"""3D mesh/torus topologies: addressing, routing, links and identity."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.topology import Mesh3D, Torus3D, make_topology
from tests.noc import reference_routing


class TestAddressing:
    def test_coords_round_trip(self):
        topology = make_topology("mesh3d", 3, 4, depth=2)
        assert topology.num_tiles == 24
        for tile in range(topology.num_tiles):
            assert topology.tile_at(*topology.coords(tile)) == tile

    def test_layer_layout_matches_2d_within_a_layer(self):
        topology = make_topology("mesh3d", 3, 3, depth=2)
        # Tile 0..8 are layer z=0 in row-major order, 9..17 are z=1.
        assert topology.coords(0) == (0, 0, 0)
        assert topology.coords(8) == (2, 2, 0)
        assert topology.coords(9) == (0, 0, 1)

    def test_out_of_range_rejected(self):
        topology = make_topology("torus3d", 2, 2, depth=2)
        with pytest.raises(ConfigurationError):
            topology.coords(8)
        with pytest.raises(ConfigurationError):
            topology.tile_at(0, 0, 2)


class TestRouting:
    @pytest.mark.parametrize("kind", ["mesh3d", "torus3d"])
    def test_routes_are_contiguous_minimal_and_dimension_ordered(self, kind):
        topology = make_topology(kind, 3, 3, depth=3)
        for src in range(0, topology.num_tiles, 2):
            for dst in range(0, topology.num_tiles, 2):
                path = topology.route(src, dst)
                assert path == reference_routing.route(topology, src, dst)
                assert path[0] == src and path[-1] == dst
                assert len(path) - 1 == topology.hop_distance(src, dst)
                for a, b in zip(path[:-1], path[1:]):
                    assert b in topology.neighbors(a)

    def test_torus_wraps_vertically(self):
        topology = make_topology("torus3d", 2, 2, depth=4)
        bottom = topology.tile_at(0, 0, 0)
        top = topology.tile_at(0, 0, 3)
        # One wrap hop instead of three unit hops.
        assert topology.hop_distance(bottom, top) == 1
        assert top in topology.neighbors(bottom)

    def test_mesh_does_not_wrap(self):
        topology = make_topology("mesh3d", 2, 2, depth=4)
        bottom = topology.tile_at(0, 0, 0)
        top = topology.tile_at(0, 0, 3)
        assert topology.hop_distance(bottom, top) == 3
        assert top not in topology.neighbors(bottom)

    def test_diameter_sums_the_three_dimensions(self):
        assert make_topology("mesh3d", 4, 3, depth=2).diameter() == 3 + 2 + 1
        assert make_topology("torus3d", 4, 4, depth=2).diameter() == 2 + 2 + 1


class TestLinksAndCuts:
    def test_vertical_links_are_short_vias(self):
        topology = make_topology("torus3d", 3, 3, depth=2)
        _slots, (horizontal,) = topology.route_profile(
            topology.tile_at(0, 0, 0), topology.tile_at(1, 0, 0)
        )
        _slots, (vertical,) = topology.route_profile(
            topology.tile_at(0, 0, 0), topology.tile_at(0, 0, 1)
        )
        assert horizontal == 2.0  # folded torus in-plane
        assert vertical == Torus3D.via_length_tiles
        assert vertical < horizontal

    def test_bisection_scales_with_depth(self):
        flat = make_topology("mesh3d", 4, 4, depth=1)
        stacked = make_topology("mesh3d", 4, 4, depth=3)
        assert stacked.bisection_links() == 3 * flat.bisection_links()
        # Torus wraparound doubles the cut.
        assert (
            make_topology("torus3d", 4, 4, depth=3).bisection_links()
            == 2 * stacked.bisection_links()
        )

    def test_links_are_symmetric_neighbour_pairs(self):
        topology = make_topology("mesh3d", 2, 3, depth=2)
        links = set(topology.links())
        for src, dst in links:
            assert (dst, src) in links


class TestIdentityAndFactory:
    def test_signature_includes_depth(self):
        a = make_topology("torus3d", 3, 3, depth=2)
        b = make_topology("torus3d", 3, 3, depth=3)
        assert not a.same_grid(b)
        assert a.same_grid(make_topology("torus3d", 3, 3, depth=2))
        assert "3x3x2" in a.describe()

    def test_2d_kinds_reject_depth(self):
        with pytest.raises(ConfigurationError, match="two-dimensional"):
            make_topology("torus", 4, 4, depth=2)

    def test_3d_kind_with_depth_one_is_allowed(self):
        topology = make_topology("mesh3d", 4, 4, depth=1)
        assert isinstance(topology, Mesh3D)
        assert topology.num_tiles == 16

    def test_machine_config_validation_mirrors_the_factory(self):
        from repro.core.config import MachineConfig

        with pytest.raises(ConfigurationError, match="3D NoC"):
            MachineConfig(width=2, height=2, depth=2, noc="torus").validate()
        config = MachineConfig(width=2, height=2, depth=2, noc="torus3d").validate()
        assert config.num_tiles == 8

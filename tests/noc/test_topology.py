"""Unit tests for NoC topologies and dimension-ordered routing."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.topology import Mesh2D, RucheTorus2D, Torus2D, make_topology
from tests.property.test_property_batched_routes import SMALL_GRIDS, grid_id


class TestAddressing:
    def test_coords_round_trip(self):
        topo = Mesh2D(4, 3)
        for tile in range(topo.num_tiles):
            x, y = topo.coords(tile)
            assert topo.tile_at(x, y) == tile

    def test_out_of_range_tile(self):
        with pytest.raises(ConfigurationError):
            Mesh2D(4, 4).coords(16)

    def test_out_of_range_coords(self):
        with pytest.raises(ConfigurationError):
            Mesh2D(4, 4).tile_at(4, 0)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            Mesh2D(0, 4)


class TestMeshRouting:
    def test_route_endpoints(self):
        topo = Mesh2D(4, 4)
        route = topo.route(0, 15)
        assert route[0] == 0
        assert route[-1] == 15

    def test_route_is_x_then_y(self):
        topo = Mesh2D(4, 4)
        route = topo.route(0, 15)
        # X-first: 0 -> 1 -> 2 -> 3, then down the last column.
        assert route[:4] == [0, 1, 2, 3]

    def test_hop_distance_is_manhattan(self):
        topo = Mesh2D(8, 8)
        assert topo.hop_distance(0, 63) == 14
        assert topo.hop_distance(0, 7) == 7
        assert topo.hop_distance(9, 9) == 0

    def test_hop_distance_matches_route_length(self):
        topo = Mesh2D(5, 5)
        for src in range(0, 25, 3):
            for dst in range(0, 25, 4):
                assert topo.hop_distance(src, dst) == len(topo.route(src, dst)) - 1

    def test_neighbors_of_corner(self):
        topo = Mesh2D(4, 4)
        assert sorted(topo.neighbors(0)) == [1, 4]

    def test_num_directed_links(self):
        topo = Mesh2D(4, 4)
        assert topo.num_directed_links() == sum(1 for _ in topo.links())


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
def test_num_directed_links_on_small_grids(grid):
    kind, width, height, extra = grid
    topo = make_topology(kind, width, height, **extra)
    assert topo.num_directed_links() == sum(1 for _ in topo.links())


class TestTorusRouting:
    def test_wraparound_shortens_route(self):
        mesh = Mesh2D(8, 8)
        torus = Torus2D(8, 8)
        assert torus.hop_distance(0, 7) == 1
        assert mesh.hop_distance(0, 7) == 7

    def test_hop_distance_matches_route_length(self):
        topo = Torus2D(6, 6)
        for src in range(0, 36, 5):
            for dst in range(0, 36, 7):
                assert topo.hop_distance(src, dst) == len(topo.route(src, dst)) - 1

    def test_bisection_doubles_mesh(self):
        mesh = Mesh2D(8, 8)
        torus = Torus2D(8, 8)
        assert torus.bisection_links() == 2 * mesh.bisection_links()

    def test_diameter_smaller_than_mesh(self):
        assert Torus2D(8, 8).diameter() < Mesh2D(8, 8).diameter()

    def test_num_directed_links(self):
        topo = Torus2D(4, 4)
        assert topo.num_directed_links() == sum(1 for _ in topo.links())


class TestRucheRouting:
    def test_express_hops_reduce_distance(self):
        torus = Torus2D(16, 16)
        ruche = RucheTorus2D(16, 16, ruche_factor=4)
        assert ruche.hop_distance(0, 8) < torus.hop_distance(0, 8)

    def test_hop_distance_matches_route_length(self):
        topo = RucheTorus2D(8, 8, ruche_factor=2)
        for src in range(0, 64, 7):
            for dst in range(0, 64, 11):
                assert topo.hop_distance(src, dst) == len(topo.route(src, dst)) - 1

    def test_bisection_exceeds_torus(self):
        torus = Torus2D(16, 16)
        ruche = RucheTorus2D(16, 16, ruche_factor=2)
        assert ruche.bisection_links() > torus.bisection_links()

    def test_invalid_ruche_factor(self):
        with pytest.raises(ConfigurationError):
            RucheTorus2D(8, 8, ruche_factor=1)

    def test_area_factor_larger_than_torus(self):
        assert RucheTorus2D(8, 8).area_factor > Torus2D(8, 8).area_factor


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [("mesh", Mesh2D), ("torus", Torus2D), ("torus_ruche", RucheTorus2D)])
    def test_make_topology(self, kind, cls):
        assert isinstance(make_topology(kind, 4, 4), cls)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_topology("hypercube", 4, 4)

    def test_average_hop_distance_positive(self):
        assert make_topology("torus", 8, 8).average_hop_distance() > 0

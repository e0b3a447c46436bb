"""Unit tests for NoC topologies and dimension-ordered routing."""

import pytest

from repro.energy.area import AreaModel
from repro.errors import ConfigurationError
from repro.noc.topology import Mesh2D, RucheTorus2D, Torus2D, make_topology
from tests.noc import reference_routing
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
                route = reference_routing.route(topo, src, dst)
                assert topo.hop_distance(src, dst) == len(route) - 1

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


#: Per ``SMALL_GRIDS`` grid: ``(diameter(), bisection_links(),
#: num_directed_links(), average_hop_distance(), average_hop_distance(64))``,
#: as the per-kind scalar routing (``next_hop_offsets`` and its siblings)
#: computed them before ``_dimension_steps`` became the one routing rule.
PINNED = {
    "mesh-1x1": (0, 2, 0, 0.0, 0.0),
    "mesh-1x5": (4, 10, 8, 1.6, 1.6),
    "mesh-4x1": (3, 2, 6, 1.25, 1.25),
    "mesh-3x4": (5, 8, 34, 2.138888888888889, 2.138888888888889),
    "mesh-6x5": (9, 10, 98, 3.5444444444444443, 3.1),
    "torus-1x1": (0, 4, 0, 0.0, 0.0),
    "torus-1x5": (2, 20, 10, 1.2, 1.2),
    "torus-4x1": (2, 4, 8, 1.0, 1.0),
    "torus-3x4": (3, 16, 48, 1.6666666666666667, 1.6666666666666667),
    "torus-6x5": (5, 20, 120, 2.7, 2.7),
    "torus_ruche-1x6-ruche_factor2": (2, 48, 24, 1.0, 1.0),
    "torus_ruche-3x2-ruche_factor2": (2, 16, 18, 1.1666666666666667, 1.1666666666666667),
    "torus_ruche-5x1-ruche_factor2": (1, 8, 20, 0.8, 0.8),
    "torus_ruche-7x8-ruche_factor2": (4, 64, 448, 2.3878116343490303, 1.25),
    "torus_ruche-9x4-ruche_factor2": (3, 32, 252, 2.080246913580247, 2.074074074074074),
    "torus_ruche-1x6-ruche_factor3": (2, 72, 18, 1.1666666666666667, 1.1666666666666667),
    "torus_ruche-3x2-ruche_factor3": (2, 24, 18, 1.1666666666666667, 1.1666666666666667),
    "torus_ruche-5x1-ruche_factor3": (2, 12, 20, 1.2, 1.2),
    "torus_ruche-7x8-ruche_factor3": (4, 96, 448, 2.376731301939058, 1.25),
    "torus_ruche-9x4-ruche_factor3": (4, 48, 216, 2.3333333333333335, 2.3209876543209877),
    "torus_ruche-1x6-ruche_factor4": (3, 96, 24, 1.5, 1.5),
    "torus_ruche-3x2-ruche_factor4": (2, 32, 18, 1.1666666666666667, 1.1666666666666667),
    "torus_ruche-5x1-ruche_factor4": (2, 16, 10, 1.2, 1.2),
    "torus_ruche-7x8-ruche_factor4": (6, 128, 392, 3.3407202216066483, 1.625),
    "torus_ruche-9x4-ruche_factor4": (5, 64, 216, 2.5555555555555554, 2.54320987654321),
    "mesh3d-1x1-depth1": (0, 2, 0, 0.0, 0.0),
    "mesh3d-2x3-depth1": (3, 6, 14, 1.3888888888888888, 1.3888888888888888),
    "mesh3d-4x1-depth1": (3, 2, 6, 1.25, 1.25),
    "mesh3d-3x3-depth1": (4, 6, 24, 1.7777777777777777, 1.7777777777777777),
    "mesh3d-1x1-depth2": (1, 4, 2, 0.5, 0.5),
    "mesh3d-2x3-depth2": (4, 12, 40, 1.8888888888888888, 1.8888888888888888),
    "mesh3d-4x1-depth2": (4, 4, 20, 1.75, 1.75),
    "mesh3d-3x3-depth2": (5, 12, 66, 2.2777777777777777, 2.271604938271605),
    "mesh3d-1x1-depth3": (2, 6, 4, 0.8888888888888888, 0.8888888888888888),
    "mesh3d-2x3-depth3": (5, 18, 66, 2.2777777777777777, 1.7777777777777777),
    "mesh3d-4x1-depth3": (5, 6, 34, 2.138888888888889, 2.138888888888889),
    "mesh3d-3x3-depth3": (6, 18, 108, 2.6666666666666665, 1.7777777777777777),
    "torus3d-1x1-depth1": (0, 4, 0, 0.0, 0.0),
    "torus3d-2x3-depth1": (2, 12, 18, 1.1666666666666667, 1.1666666666666667),
    "torus3d-4x1-depth1": (2, 4, 8, 1.0, 1.0),
    "torus3d-3x3-depth1": (2, 12, 36, 1.3333333333333333, 1.3333333333333333),
    "torus3d-1x1-depth2": (1, 8, 2, 0.5, 0.5),
    "torus3d-2x3-depth2": (3, 24, 48, 1.6666666666666667, 1.6666666666666667),
    "torus3d-4x1-depth2": (3, 8, 24, 1.5, 1.5),
    "torus3d-3x3-depth2": (3, 24, 90, 1.8333333333333333, 1.8271604938271604),
    "torus3d-1x1-depth3": (1, 12, 6, 0.6666666666666666, 0.6666666666666666),
    "torus3d-2x3-depth3": (3, 36, 90, 1.8333333333333333, 1.3333333333333333),
    "torus3d-4x1-depth3": (3, 12, 48, 1.6666666666666667, 1.6666666666666667),
    "torus3d-3x3-depth3": (3, 36, 162, 2.0, 1.3333333333333333),
}


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
def test_grid_properties_are_pinned(grid):
    kind, width, height, extra = grid
    topo = make_topology(kind, width, height, **extra)
    assert (
        topo.diameter(), topo.bisection_links(), topo.num_directed_links(),
        topo.average_hop_distance(), topo.average_hop_distance(64),
    ) == PINNED[grid_id(grid)]


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
def test_slot_layout_tabulates_the_reference_decomposition(grid):
    """Every displacement's leg in the slot layout is the greedy per-kind
    decomposition, hop for hop, with the same output ports."""
    kind, width, height, extra = grid
    topo = make_topology(kind, width, height, **extra)
    assert topo.slot_layout().dimensions == reference_routing.leg_table(topo)


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
                route = reference_routing.route(topo, src, dst)
                assert topo.hop_distance(src, dst) == len(route) - 1

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
                route = reference_routing.route(topo, src, dst)
                assert topo.hop_distance(src, dst) == len(route) - 1

    def test_bisection_exceeds_torus(self):
        torus = Torus2D(16, 16)
        ruche = RucheTorus2D(16, 16, ruche_factor=2)
        assert ruche.bisection_links() > torus.bisection_links()

    def test_invalid_ruche_factor(self):
        with pytest.raises(ConfigurationError):
            RucheTorus2D(8, 8, ruche_factor=1)

    def test_area_factor_larger_than_torus(self):
        area = AreaModel()
        assert area.noc_area_factor("torus_ruche") > area.noc_area_factor("torus")


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [("mesh", Mesh2D), ("torus", Torus2D), ("torus_ruche", RucheTorus2D)])
    def test_make_topology(self, kind, cls):
        assert isinstance(make_topology(kind, 4, 4), cls)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_topology("hypercube", 4, 4)

    def test_average_hop_distance_positive(self):
        assert make_topology("torus", 8, 8).average_hop_distance() > 0

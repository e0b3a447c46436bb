"""Property-based tests for NoC routing invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import make_topology
from tests.noc import reference_routing
from tests.property.test_property_batched_routes import SMALL_GRIDS, grid_id

grids = st.tuples(
    st.sampled_from(["mesh", "torus", "torus_ruche"]),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
)


class TestRoutingInvariants:
    @given(grids, st.data())
    @settings(max_examples=60, deadline=None)
    def test_route_connects_endpoints_with_valid_hops(self, grid, data):
        kind, width, height = grid
        topo = make_topology(kind, width, height)
        src = data.draw(st.integers(min_value=0, max_value=topo.num_tiles - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.num_tiles - 1))
        route = topo.route(src, dst)
        assert route == reference_routing.route(topo, src, dst)
        assert route[0] == src
        assert route[-1] == dst
        assert len(route) - 1 == topo.hop_distance(src, dst)
        for a, b in zip(route, route[1:]):
            assert b in topo.neighbors(a), f"{a}->{b} is not a physical link"

    @given(grids, st.data())
    @settings(max_examples=60, deadline=None)
    def test_hop_distance_symmetric_under_reversal_bound(self, grid, data):
        kind, width, height = grid
        topo = make_topology(kind, width, height)
        src = data.draw(st.integers(min_value=0, max_value=topo.num_tiles - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.num_tiles - 1))
        assert topo.hop_distance(src, dst) == topo.hop_distance(dst, src)
        assert topo.hop_distance(src, src) == 0
        assert topo.hop_distance(src, dst) <= topo.diameter()

    @given(grids)
    @settings(max_examples=40, deadline=None)
    def test_torus_never_longer_than_mesh(self, grid):
        _, width, height = grid
        mesh = make_topology("mesh", width, height)
        torus = make_topology("torus", width, height)
        for src in range(0, mesh.num_tiles, max(1, mesh.num_tiles // 7)):
            for dst in range(0, mesh.num_tiles, max(1, mesh.num_tiles // 5)):
                assert torus.hop_distance(src, dst) <= mesh.hop_distance(src, dst)

    @given(grids)
    @settings(max_examples=40, deadline=None)
    def test_link_count_matches_formula(self, grid):
        kind, width, height = grid
        topo = make_topology(kind, width, height)
        assert topo.num_directed_links() == sum(1 for _ in topo.links())

    @pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
    def test_link_count_matches_formula_on_small_grids(self, grid):
        kind, width, height, extra = grid
        topo = make_topology(kind, width, height, **extra)
        assert topo.num_directed_links() == sum(1 for _ in topo.links())

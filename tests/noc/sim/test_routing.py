"""Routing policies: minimality, determinism and per-topology validity."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.sim.routing import ROUTING_KINDS, make_routing
from repro.noc.topology import make_topology
from tests.noc import reference_routing

TOPOLOGIES = [
    ("mesh", 4, 4, 1),
    ("torus", 4, 4, 1),
    ("torus_ruche", 6, 6, 1),
    ("mesh3d", 3, 3, 2),
    ("torus3d", 3, 3, 2),
]


def idle_links(policy):
    """Link-state stub for an empty network: every link slot free at cycle 0."""
    return [0.0] * (policy.topology.num_tiles * policy.layout.ports)


def tile_path(policy, src, slots):
    """The tiles a slot route visits from ``src``, via the layout's inverse.

    Each slot must leave the tile the previous one entered (contiguity).
    """
    path = [src]
    for slot in slots:
        tile, next_tile = policy.layout.link(slot)
        assert tile == path[-1], f"slot {slot} leaves {tile}, not {path[-1]}"
        path.append(next_tile)
    return path


def route_path(policy, src, dst, message_index, link_free=None):
    """One message's route as the tile list it traverses, inclusive."""
    if link_free is None:
        link_free = idle_links(policy)
    return tile_path(policy, src, policy.route(src, dst, message_index, link_free))


def pairs(topology, stride=3):
    for src in range(0, topology.num_tiles, stride):
        for dst in range(0, topology.num_tiles, stride):
            yield src, dst


@pytest.mark.parametrize("kind,width,height,depth", TOPOLOGIES,
                         ids=[t[0] for t in TOPOLOGIES])
@pytest.mark.parametrize("routing", ROUTING_KINDS)
class TestRoutesAreValid:
    def test_routes_are_minimal_contiguous_and_terminate(
        self, kind, width, height, depth, routing
    ):
        topology = make_topology(kind, width, height, depth=depth)
        policy = make_routing(routing, topology)
        for src, dst in pairs(topology):
            path = route_path(policy, src, dst, 0)
            assert path[0] == src and path[-1] == dst
            # Minimal: exactly the dimension-ordered hop count, whatever the
            # policy (all policies only take distance-reducing steps).
            assert len(path) - 1 == topology.hop_distance(src, dst)
            for a, b in zip(path[:-1], path[1:]):
                assert b in topology.neighbors(a), f"{a}->{b} is not a link"

    def test_routing_is_deterministic(self, kind, width, height, depth, routing):
        topology = make_topology(kind, width, height, depth=depth)
        policy_a = make_routing(routing, topology)
        policy_b = make_routing(routing, topology)
        idle = idle_links(policy_a)
        for index, (src, dst) in enumerate(pairs(topology)):
            assert policy_a.route(src, dst, index, idle) == policy_b.route(
                src, dst, index, idle
            )


class TestDimensionOrdered:
    def test_matches_topology_route_exactly(self):
        topology = make_topology("torus", 4, 4)
        policy = make_routing("dimension_ordered", topology)
        for src in range(topology.num_tiles):
            for dst in range(topology.num_tiles):
                expected = reference_routing.route(topology, src, dst)
                assert route_path(policy, src, dst, 0) == expected
                assert topology.route(src, dst) == expected


class TestXYYX:
    def test_alternates_dimension_order_per_message(self):
        topology = make_topology("mesh", 4, 4)
        policy = make_routing("xy_yx", topology)
        src, dst = 0, topology.tile_at(3, 3)
        x_first = route_path(policy, src, dst, 0)
        y_first = route_path(policy, src, dst, 1)
        assert x_first == reference_routing.route(topology, src, dst)
        assert y_first == reference_routing.route(topology, src, dst, (1, 0))
        assert topology.route_dims(src, dst, (1, 0)) == y_first
        assert x_first != y_first  # corner-to-corner: the orders must differ

    def test_even_messages_reproduce_dimension_order(self):
        topology = make_topology("torus", 4, 4)
        policy = make_routing("xy_yx", topology)
        for src, dst in pairs(topology, stride=2):
            assert route_path(policy, src, dst, 2) == reference_routing.route(topology, src, dst)


class TestAdaptive:
    def test_idle_network_degenerates_to_dimension_order(self):
        topology = make_topology("mesh", 4, 4)
        policy = make_routing("adaptive", topology)
        for src, dst in pairs(topology, stride=2):
            assert route_path(policy, src, dst, 0) == reference_routing.route(topology, src, dst)

    def test_steers_around_a_busy_link(self):
        topology = make_topology("mesh", 4, 4)
        policy = make_routing("adaptive", topology)
        src = topology.tile_at(0, 0)
        dst = topology.tile_at(1, 1)
        hot = (src, topology.tile_at(1, 0))  # the X-first first hop
        congested = idle_links(policy)
        hot_slot = policy.route(src, dst, 0, congested)[0]
        assert policy.layout.link(hot_slot) == hot
        congested[hot_slot] = 100.0

        path = route_path(policy, src, dst, 0, congested)
        assert path[1] == topology.tile_at(0, 1), "should take the free Y hop first"
        assert len(path) - 1 == topology.hop_distance(src, dst)


class TestFactory:
    def test_unknown_policy_rejected(self):
        topology = make_topology("mesh", 2, 2)
        with pytest.raises(ConfigurationError, match="unknown routing"):
            make_routing("hot_potato", topology)

    def test_kinds_match_config_constants(self):
        from repro.core.config import ROUTING_KINDS as CONFIG_ROUTING_KINDS

        assert tuple(ROUTING_KINDS) == tuple(CONFIG_ROUTING_KINDS)

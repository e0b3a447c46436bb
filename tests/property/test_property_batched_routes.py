"""Property tests: closed-form routes equal the reference route walk.

``Topology.route_link_codes`` and its siblings generate a whole batch's
routes with array arithmetic and no cache, and the per-message routes walk
the slot layout's leg table; both derive from ``_dimension_steps``.  On
small grids of every kind -- ruche factors 2-4 including widths below
``2R``, 1-wide dimensions, 3D depths 1-3 -- every ordered (src, dst) pair
must give exactly what the greedy per-kind decompositions of
``tests/noc/reference_routing.py`` give: the same links in the same order
(in dimension order and in reverse order), the same per-link lengths as
exact floats, the same hop counts and the same spans.  On the same grids,
``LinkLoadModel.record_batch`` -- which charges every route leg as one
interval of the slot layout's cycle order -- must leave exactly the
per-slot and per-router tallies of a walk over the reference links, and
``AnalyticalNetwork.send`` -- which walks routes per dimension and keeps
one busy-until time per (tile, output port) -- must time random message
sequences exactly like a walk over the reference links with one
busy-until time per (src, dst) link.
"""

import numpy as np
import pytest

from repro.core.network import AnalyticalNetwork
from repro.noc.analytical import LinkLoadModel
from repro.noc.topology import make_topology
from tests.noc import reference_routing

# Every ruche factor meets widths and heights below, at and above 2R; the 3D
# kinds meet every depth 1-3; every kind meets 1-wide dimensions.
SMALL_GRIDS = (
    [(kind, width, height, {}) for kind in ("mesh", "torus")
     for width, height in ((1, 1), (1, 5), (4, 1), (3, 4), (6, 5))]
    + [("torus_ruche", width, height, {"ruche_factor": factor})
       for factor in (2, 3, 4)
       for width, height in ((1, 6), (3, 2), (5, 1), (7, 8), (9, 4))]
    + [(kind, width, height, {"depth": depth}) for kind in ("mesh3d", "torus3d")
       for depth in (1, 2, 3)
       for width, height in ((1, 1), (2, 3), (4, 1), (3, 3))]
)


def grid_id(grid):
    kind, width, height, extra = grid
    return "-".join([kind, f"{width}x{height}"] + [f"{k}{v}" for k, v in extra.items()])


def all_pairs(topology):
    srcs, dsts = np.divmod(np.arange(topology.num_tiles ** 2), topology.num_tiles)
    return srcs, dsts


class TestClosedFormRoutes:
    @pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
    def test_batched_routes_equal_scalar_routes_for_every_pair(self, grid):
        kind, width, height, extra = grid
        topology = make_topology(kind, width, height, **extra)
        srcs, dsts = all_pairs(topology)
        num_tiles = topology.num_tiles
        layout = topology.slot_layout()
        reverse = tuple(reversed(range(len(topology.dimension_sizes()))))
        codes, lengths, hops, spans = [], [], [], []
        for src, dst in zip(srcs.tolist(), dsts.tolist()):
            links = reference_routing.links_on_route(topology, src, dst)
            route_lengths = [
                reference_routing.link_length_tiles(topology, a, b) for a, b in links
            ]
            assert topology.links_on_route(src, dst) == links
            assert topology.route_dims(src, dst, reverse) == reference_routing.route(
                topology, src, dst, reverse
            )
            # The scalar reference path's slot walk names the same links.
            slots, slot_lengths = topology.route_profile(src, dst)
            assert [layout.link(slot) for slot in slots] == links
            assert slot_lengths == route_lengths
            assert topology.hop_distance(src, dst) == len(links)
            assert topology.route_span_tiles(src, dst) == sum(route_lengths)
            codes.extend(a * num_tiles + b for a, b in links)
            lengths.extend(route_lengths)
            hops.append(len(links))
            spans.append(sum(route_lengths))
        batch_codes, batch_lengths = topology.route_link_codes(srcs, dsts)
        assert batch_codes.tolist() == codes
        assert batch_lengths.tolist() == lengths
        assert topology.hop_distance_batch(srcs, dsts).tolist() == hops
        assert topology.route_span_tiles_batch(srcs, dsts).tolist() == spans

    def test_ruche_grid_mixes_express_and_unit_links(self):
        topology = make_topology("torus_ruche", 9, 8, ruche_factor=3)
        srcs, dsts = all_pairs(topology)
        _codes, lengths = topology.route_link_codes(srcs, dsts)
        assert set(lengths.tolist()) == {2.0, 6.0}

    def test_3d_grid_mixes_planar_and_tsv_links(self):
        topology = make_topology("torus3d", 3, 2, depth=3)
        srcs, dsts = all_pairs(topology)
        _codes, lengths = topology.route_link_codes(srcs, dsts)
        assert set(lengths.tolist()) == {2.0, 0.25}

    def test_empty_batch(self):
        topology = make_topology("torus_ruche", 8, 8, ruche_factor=2)
        empty = np.empty(0, dtype=np.int64)
        codes, lengths = topology.route_link_codes(empty, empty)
        assert codes.size == 0 and lengths.size == 0
        assert topology.hop_distance_batch(empty, empty).size == 0
        assert topology.route_span_tiles_batch(empty, empty).size == 0


def link_slot(layout, link, wraps):
    """The slot a dimension-ordered route charges ``link`` to, found from
    the layout's port data alone: the link's dimension, and the port of
    that dimension whose step is the link's displacement -- modulo the
    dimension's size on wraparound kinds, where routes break a +s/-s tie
    forward, so the first such port in port order (+1, -1, +R, -R)."""
    a, b = link
    per_dimension = len(layout.steps)
    for dim, (stride, size, _legs) in enumerate(layout.dimensions):
        delta = b // stride % size - a // stride % size
        if delta:
            index = next(
                index for index, step in enumerate(layout.steps)
                if ((step - delta) % size if wraps else step - delta) == 0
            )
            return a * layout.ports + dim * per_dimension + index
    raise AssertionError(f"{link} is not a link")


class TestLegAccounting:
    @pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
    def test_slot_tallies_equal_a_per_link_walk_for_every_pair(self, grid):
        kind, width, height, extra = grid
        topology = make_topology(kind, width, height, **extra)
        layout = topology.slot_layout()
        srcs, dsts = all_pairs(topology)
        per_message = np.random.default_rng(23).integers(1, 6, size=len(srcs))
        for flits in (3, per_message):
            batched = LinkLoadModel(topology)
            scalar = LinkLoadModel(topology)
            batched.record_batch(srcs, dsts, flits, 0.37)
            slots = np.zeros(layout.num_slots, dtype=np.int64)
            routers = np.zeros(topology.num_tiles, dtype=np.int64)
            lengths = np.broadcast_to(flits, srcs.shape).tolist()
            for src, dst, length in zip(srcs.tolist(), dsts.tolist(), lengths):
                scalar.record_message(src, dst, length, 0.37)
                links = reference_routing.links_on_route(topology, src, dst)
                for link in links:
                    slots[link_slot(layout, link, not kind.startswith("mesh"))] += length
                    routers[link[0]] += length
                if links:
                    routers[dst] += length
            assert np.array_equal(batched.slot_flits, slots)
            assert np.array_equal(batched.router_flits, routers)
            assert np.array_equal(scalar.slot_flits, slots)
            assert np.array_equal(scalar.router_flits, routers)
            # No link is charged on two slots, so the link view loses nothing.
            assert len(batched.link_flits) == np.count_nonzero(slots)
            assert batched.total_flit_millimeters == scalar.total_flit_millimeters


class TupleKeyedNetwork:
    """Reference timing: the link walk ``AnalyticalNetwork`` replaced, one
    busy-until time per ``(src, dst)`` link of the reference route."""

    def __init__(self, topology):
        self.topology = topology
        self.link_free = {}

    def send(self, src, dst, flits, now):
        time = now
        for link in reference_routing.links_on_route(self.topology, src, dst):
            busy = self.link_free.get(link, 0.0)
            time = (busy if busy > time else time) + flits
            self.link_free[link] = time
        return time


class TestClosedFormNetworkWalk:
    @pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
    def test_send_times_links_like_the_tuple_keyed_walk(self, grid):
        kind, width, height, extra = grid
        topology = make_topology(kind, width, height, **extra)
        rng = np.random.default_rng(17)
        network = AnalyticalNetwork(topology)
        reference = TupleKeyedNetwork(topology)
        num = 400
        srcs = rng.integers(0, topology.num_tiles, size=num).tolist()
        dsts = rng.integers(0, topology.num_tiles, size=num).tolist()
        flits = rng.integers(1, 5, size=num).tolist()
        # Nondecreasing send times, as the event loop issues them, often
        # tied so that messages queue behind each other on shared links.
        times = np.cumsum(rng.choice([0.0, 0.0, 0.5, 1.0, 2.25], size=num)).tolist()
        for src, dst, length, now in zip(srcs, dsts, flits, times):
            assert network.send(src, dst, length, now) == reference.send(
                src, dst, length, now
            )
        # Per-link busy times: every link a route can use is the whole route
        # between its own endpoints, so one 1-flit probe at time 0 per link
        # reads that link's slot.  Probing every link once also shows that
        # no two links share a slot (the second probe would see the first).
        links = set(topology.links())
        assert set(reference.link_free) <= links
        for a, b in sorted(links):
            if reference_routing.links_on_route(topology, a, b) != [(a, b)]:
                assert (a, b) not in reference.link_free  # no route uses it
                continue
            assert network.send(a, b, 1, 0.0) == reference.link_free.get((a, b), 0.0) + 1

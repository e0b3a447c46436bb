"""Property tests: closed-form routes equal the scalar route walk.

``Topology.route_link_codes`` and its siblings generate a whole batch's
routes with array arithmetic and no cache.  On small grids of every kind --
ruche factors 2-4 including widths below ``2R``, 1-wide dimensions, 3D
depths 1-3 -- every ordered (src, dst) pair must give exactly what the
per-message functions give: the same links in the same order, the same
per-link lengths as exact floats, the same hop counts and the same spans.
On the same grids, ``AnalyticalNetwork.send`` -- which walks routes per
dimension and keeps one busy-until time per (tile, output port) -- must time
random message sequences exactly like a walk over ``links_on_route`` with
one busy-until time per (src, dst) link.
"""

import numpy as np
import pytest

from repro.core.network import AnalyticalNetwork
from repro.noc.topology import make_topology

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
        codes, lengths, hops, spans = [], [], [], []
        for src, dst in zip(srcs.tolist(), dsts.tolist()):
            for a, b in topology.links_on_route(src, dst):
                codes.append(a * num_tiles + b)
                lengths.append(topology.link_length_tiles(a, b))
            hops.append(topology.hop_distance(src, dst))
            spans.append(topology.route_span_tiles(src, dst))
        batch_codes, batch_lengths = topology.route_link_codes(srcs, dsts)
        assert batch_codes.tolist() == codes
        assert batch_lengths.tolist() == lengths
        assert topology.route_link_lengths(srcs, dsts).tolist() == lengths
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
        assert topology.route_link_lengths(empty, empty).size == 0
        assert topology.hop_distance_batch(empty, empty).size == 0
        assert topology.route_span_tiles_batch(empty, empty).size == 0


class TupleKeyedNetwork:
    """Reference timing: the link walk ``AnalyticalNetwork`` replaced, one
    busy-until time per ``(src, dst)`` link of :meth:`links_on_route`."""

    def __init__(self, topology):
        self.topology = topology
        self.link_free = {}

    def send(self, src, dst, flits, now):
        time = now
        for link in self.topology.links_on_route(src, dst):
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
            if topology.links_on_route(a, b) != [(a, b)]:
                assert (a, b) not in reference.link_free  # no route uses it
                continue
            assert network.send(a, b, 1, 0.0) == reference.link_free.get((a, b), 0.0) + 1

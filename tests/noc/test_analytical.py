"""Unit tests for the link-load model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.noc import analytical
from repro.noc.analytical import LinkLoadModel
from repro.noc.topology import Mesh2D, Torus2D, make_topology


class TestDetailedModel:
    def test_local_message_uses_no_links(self):
        model = LinkLoadModel(Mesh2D(4, 4))
        hops = model.record_message(3, 3, flits=2)
        assert hops == 0
        assert model.max_link_load() == 0
        assert model.total_messages == 1

    def test_single_message_loads_route(self):
        topo = Mesh2D(4, 4)
        model = LinkLoadModel(topo)
        hops = model.record_message(0, 3, flits=2)
        assert hops == 3
        assert model.max_link_load() == 2
        assert model.total_flit_hops == 6

    def test_overlapping_messages_accumulate(self):
        topo = Mesh2D(4, 1)
        model = LinkLoadModel(topo)
        model.record_message(0, 3, flits=1)
        model.record_message(1, 3, flits=1)
        # The 2 -> 3 link carries both messages.
        assert model.max_link_load() == 2

    def test_endpoint_load(self):
        model = LinkLoadModel(Mesh2D(4, 4))
        model.record_message(0, 5, flits=3)
        model.record_message(1, 5, flits=3)
        assert model.max_endpoint_load() == 6

    def test_bisection_load_counts_crossings(self):
        topo = Mesh2D(4, 4)
        model = LinkLoadModel(topo)
        model.record_message(0, 3, flits=1)   # crosses the vertical middle cut
        model.record_message(0, 1, flits=1)   # stays in the left half
        assert model.bisection_load() == 1

    def test_network_bound_positive(self):
        model = LinkLoadModel(Torus2D(4, 4))
        model.record_message(0, 10, flits=2)
        assert model.network_bound_cycles() > 0

    def test_router_traffic_shape(self):
        topo = Mesh2D(4, 4)
        model = LinkLoadModel(topo)
        model.record_message(0, 15, flits=1)
        assert len(model.router_traffic()) == topo.num_tiles
        assert model.router_traffic().sum() > 0

    def test_merge_accumulates(self):
        topo = Mesh2D(4, 4)
        a = LinkLoadModel(topo)
        b = LinkLoadModel(topo)
        a.record_message(0, 3, flits=1)
        b.record_message(0, 3, flits=1)
        a.merge(b)
        assert a.max_link_load() == 2
        assert a.total_messages == 2

    def test_reset_clears_state(self):
        model = LinkLoadModel(Mesh2D(4, 4))
        model.record_message(0, 3, flits=1)
        model.reset()
        assert model.max_link_load() == 0
        assert model.total_messages == 0

    def test_wire_millimeters_scale_with_pitch(self):
        topo = Mesh2D(4, 4)
        small = LinkLoadModel(topo)
        large = LinkLoadModel(topo)
        small.record_message(0, 3, flits=1, tile_pitch_mm=1.0)
        large.record_message(0, 3, flits=1, tile_pitch_mm=2.0)
        assert large.total_flit_millimeters == pytest.approx(2 * small.total_flit_millimeters)


class TestMergeValidation:
    """Regression tests: merge used to silently miscount across mismatched models."""

    def test_merge_rejects_mixed_detail_modes(self):
        topo = Mesh2D(4, 4)
        detailed = LinkLoadModel(topo, detailed=True)
        aggregate = LinkLoadModel(topo, detailed=False)
        aggregate.record_message(0, 3, flits=2)
        before = (detailed.total_messages, detailed.total_flit_hops)
        with pytest.raises(ValueError, match="detailed"):
            detailed.merge(aggregate)
        with pytest.raises(ValueError, match="detailed"):
            aggregate.merge(detailed)
        # The failed merge must not have partially mutated the target.
        assert (detailed.total_messages, detailed.total_flit_hops) == before

    def test_merge_rejects_different_topologies(self):
        a = LinkLoadModel(Mesh2D(4, 4))
        b = LinkLoadModel(Mesh2D(8, 8))
        with pytest.raises(ValueError, match="topolog"):
            a.merge(b)

    def test_merge_rejects_different_noc_kind_same_shape(self):
        mesh = LinkLoadModel(Mesh2D(4, 4))
        torus = LinkLoadModel(Torus2D(4, 4))
        with pytest.raises(ValueError, match="topolog"):
            mesh.merge(torus)

    def test_merge_same_grid_still_accumulates(self):
        a = LinkLoadModel(Torus2D(4, 4), detailed=False)
        b = LinkLoadModel(Torus2D(4, 4), detailed=False)
        a.record_message(0, 3, flits=1)
        b.record_message(0, 3, flits=1)
        a.merge(b)
        assert a.total_messages == 2


@pytest.mark.parametrize("detailed", [True, False], ids=["detailed", "aggregate"])
@pytest.mark.parametrize("src,dst", [(-1, 5), (3, 16), (16, 3)])
def test_out_of_range_tile_raises_before_counting(src, dst, detailed):
    topo = Mesh2D(4, 4)
    model = LinkLoadModel(topo, detailed=detailed)
    error = f"tile {src if src in (-1, 16) else dst} out of range"
    with pytest.raises(ConfigurationError, match=error):
        topo.route_profile(src, dst)
    with pytest.raises(ConfigurationError, match=error):
        model.record_message(src, dst, 2)
    with pytest.raises(ConfigurationError, match=error):
        model.record_batch(np.array([src]), np.array([dst]), 2)
    # In-range messages ahead of the bad one are not counted either.
    with pytest.raises(ConfigurationError, match=error):
        model.record_batch(np.array([0, 5, src]), np.array([15, 5, dst]), np.array([1, 2, 3]))
    assert model.total_messages == 0
    assert model.bisection_load() == 0
    assert model.total_flit_hops == 0
    assert model.total_flit_millimeters == 0.0
    for tally in (model.slot_flits, model.router_flits, model.injected_flits,
                  model.ejected_flits):
        assert not tally.any()


class TestAggregateModel:
    def test_aggregate_mode_estimates_link_load(self):
        topo = Torus2D(8, 8)
        detailed = LinkLoadModel(topo, detailed=True)
        aggregate = LinkLoadModel(topo, detailed=False)
        pairs = [(i, (i * 17 + 3) % 64) for i in range(64)]
        for src, dst in pairs:
            detailed.record_message(src, dst, flits=2)
            aggregate.record_message(src, dst, flits=2)
        assert aggregate.total_flit_hops == detailed.total_flit_hops
        assert aggregate.max_link_load() == pytest.approx(
            detailed.max_link_load(), rel=2.0, abs=5
        )

    def test_aggregate_mode_tracks_bisection(self):
        topo = Mesh2D(4, 4)
        model = LinkLoadModel(topo, detailed=False)
        model.record_message(0, 3, flits=1)
        assert model.bisection_load() == 1

    def test_congestion_factor_orders_mesh_above_torus(self):
        assert Mesh2D(8, 8).congestion_factor > Torus2D(8, 8).congestion_factor


BATCH_TOPOLOGIES = [
    ("mesh", dict()),
    ("torus", dict()),
    ("torus_ruche", dict(ruche_factor=2)),
    ("torus_ruche", dict(ruche_factor=3)),
    ("mesh3d", dict(depth=3)),
    ("torus3d", dict(depth=2)),
]


class TestRecordBatch:
    """``record_batch`` must equal a loop of ``record_message``, bit for bit."""

    @pytest.mark.parametrize("chunk_links", [1 << 20, 7], ids=["whole", "chunked"])
    @pytest.mark.parametrize("detailed", [True, False], ids=["detailed", "aggregate"])
    @pytest.mark.parametrize("kind,extra", BATCH_TOPOLOGIES)
    def test_matches_record_message_loop(
        self, kind, extra, detailed, chunk_links, monkeypatch
    ):
        monkeypatch.setattr(analytical, "ROUTE_CHUNK_LINKS", chunk_links)
        topology = make_topology(kind, 7, 6, **extra)
        rng = np.random.default_rng(5)
        batched = LinkLoadModel(topology, detailed=detailed)
        scalar = LinkLoadModel(topology, detailed=detailed)
        pitch = 0.37  # an inexact pitch, so the float fold order shows
        for flits in (1, 3, 2, "mixed"):
            srcs = rng.integers(0, topology.num_tiles, size=300)
            dsts = rng.integers(0, topology.num_tiles, size=300)
            dsts[:20] = srcs[:20]  # local messages ride along
            if flits == "mixed":  # one length per message, as the cycle engine logs
                flits = rng.integers(1, 5, size=300)
            hops = batched.record_batch(srcs, dsts, flits, pitch)
            lengths = np.broadcast_to(flits, srcs.shape).tolist()
            expected = [
                scalar.record_message(src, dst, length, pitch)
                for src, dst, length in zip(srcs.tolist(), dsts.tolist(), lengths)
            ]
            assert hops.tolist() == expected
        assert np.array_equal(batched.slot_flits, scalar.slot_flits)
        assert np.array_equal(batched.router_flits, scalar.router_flits)
        assert np.array_equal(batched.injected_flits, scalar.injected_flits)
        assert np.array_equal(batched.ejected_flits, scalar.ejected_flits)
        assert batched.total_flit_hops == scalar.total_flit_hops
        assert batched.total_messages == scalar.total_messages
        assert batched.bisection_load() == scalar.bisection_load()
        assert batched.total_flit_millimeters == scalar.total_flit_millimeters

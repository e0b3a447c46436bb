"""Unit tests for the sharding primitives: plan geometry and link state."""

import multiprocessing

import numpy as np
import pytest

from repro.core.shard import (
    LINK_STATE_ARRAYS,
    ShardPlan,
    apply_link_state,
    export_link_state,
)
from repro.errors import ConfigurationError
from repro.noc.analytical import LinkLoadModel
from repro.noc.topology import make_topology


class TestShardPlan:
    def test_extents_are_contiguous_and_cover_every_tile(self):
        plan = ShardPlan(10, 3)
        extents = [plan.extent(s) for s in range(plan.num_shards)]
        assert extents[0][0] == 0
        assert extents[-1][1] == 10
        for (_, hi), (lo, _) in zip(extents, extents[1:]):
            assert hi == lo

    def test_extents_are_balanced_within_one_tile(self):
        plan = ShardPlan(11, 4)
        sizes = [hi - lo for lo, hi in (plan.extent(s) for s in range(4))]
        assert sum(sizes) == 11
        assert max(sizes) - min(sizes) <= 1

    def test_shard_count_clamps_to_tile_count(self):
        plan = ShardPlan(3, 8)
        assert plan.num_shards == 3

    def test_owner_of_matches_extents(self):
        plan = ShardPlan(17, 5)
        tiles = np.arange(17)
        owners = plan.owner_of(tiles)
        for shard in range(plan.num_shards):
            lo, hi = plan.extent(shard)
            assert (owners[lo:hi] == shard).all()

    def test_shards_of_partitions_preserving_order(self):
        plan = ShardPlan(8, 2)
        tiles = np.array([7, 0, 3, 4, 1, 7, 2])
        pieces = dict(plan.shards_of(tiles))
        recovered = np.concatenate([pieces[s] for s in sorted(pieces)])
        assert sorted(recovered.tolist()) == list(range(len(tiles)))
        for shard, idx in pieces.items():
            lo, hi = plan.extent(shard)
            assert ((tiles[idx] >= lo) & (tiles[idx] < hi)).all()
            # Index arrays ascend, so per-shard item order is preserved.
            assert (np.diff(idx) > 0).all() or len(idx) <= 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_shard_counts_raise(self, bad):
        with pytest.raises(ConfigurationError):
            ShardPlan(4, bad)

    def test_invalid_extent_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(4, 2).extent(2)


class TestLinkStateCodec:
    def _loaded_model(self, detailed):
        topology = make_topology("torus", 4, 4)
        model = LinkLoadModel(topology, detailed=detailed)
        model.record_message(0, 5, 3, tile_pitch_mm=0.5)
        model.record_message(2, 9, 2, tile_pitch_mm=0.5)
        model.record_batch(
            np.array([1, 3, 6]), np.array([8, 2, 0]), 4, tile_pitch_mm=0.5
        )
        return topology, model

    @pytest.mark.parametrize("detailed", [True, False])
    def test_export_apply_reproduces_integer_tallies(self, detailed):
        topology, model = self._loaded_model(detailed)
        target = LinkLoadModel(topology, detailed=detailed)
        apply_link_state(target, export_link_state(model))
        assert target.total_flit_hops == model.total_flit_hops
        assert target.total_messages == model.total_messages
        assert target._bisection_flits == model._bisection_flits
        for name in LINK_STATE_ARRAYS:
            assert np.array_equal(getattr(target, name), getattr(model, name)), name

    def test_millimeters_are_not_exported(self):
        topology, model = self._loaded_model(False)
        state = export_link_state(model)
        assert "total_flit_millimeters" not in state
        target = LinkLoadModel(topology, detailed=False)
        apply_link_state(target, state)
        assert target.total_flit_millimeters == 0.0

    @pytest.mark.parametrize("detailed", [True, False])
    def test_apply_accumulates_across_shards(self, detailed):
        topology, model = self._loaded_model(detailed)
        target = LinkLoadModel(topology, detailed=detailed)
        state = export_link_state(model)
        apply_link_state(target, state)
        apply_link_state(target, state)
        assert target.total_flit_hops == 2 * model.total_flit_hops
        assert target.total_messages == 2 * model.total_messages

    @pytest.mark.parametrize("detailed", [True, False])
    def test_export_survives_the_process_pipe(self, detailed):
        # The local transport ships the export over a multiprocessing pipe,
        # which pickles it: the integer columns must arrive dtype-exact.
        topology, model = self._loaded_model(detailed)
        hub_end, shard_end = multiprocessing.Pipe()
        shard_end.send(export_link_state(model))
        state = hub_end.recv()
        hub_end.close()
        shard_end.close()
        for name in LINK_STATE_ARRAYS:
            assert state[name].dtype == np.int64, name
        target = LinkLoadModel(topology, detailed=detailed)
        apply_link_state(target, state)
        assert np.array_equal(target.slot_flits, model.slot_flits)
        assert target.total_flit_hops == model.total_flit_hops
        assert target._bisection_flits == model._bisection_flits

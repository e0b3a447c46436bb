"""RunSpec sharding semantics: cache keys, back-compat, predicted cost."""

import dataclasses

import pytest

from repro.core.config import MachineConfig
from repro.runtime.spec import RunSpec, SPEC_VERSION


def make_spec(**overrides) -> RunSpec:
    fields = dict(
        app="bfs",
        dataset="rmat16",
        config=MachineConfig(width=4, height=4),
        scale=0.5,
        seed=7,
        verify=False,
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestShardsInCanonicalForm:
    def test_single_shard_spec_omits_the_field(self):
        assert "shards" not in make_spec().canonical()
        assert "shards" not in make_spec(shards=1).canonical()

    def test_multi_shard_spec_includes_the_field(self):
        assert make_spec(shards=4).canonical()["shards"] == 4

    def test_shards_clamp_to_tile_count_in_the_key(self):
        # 16 tiles: 64 requested shards alias 16 effective shards.
        assert make_spec(shards=64).key() == make_spec(shards=16).key()
        assert make_spec(shards=64).key() != make_spec(shards=4).key()

    def test_shard_count_changes_the_key_only_above_one(self):
        base = make_spec().key()
        assert make_spec(shards=1).key() == base
        assert make_spec(shards=2).key() != base

    def test_roundtrip_preserves_shards(self):
        spec = make_spec(shards=4)
        restored = RunSpec.from_canonical(spec.canonical())
        assert restored.shards == 4
        assert restored == spec and restored.key() == spec.key()


class TestBackCompat:
    def test_version_2_payloads_still_parse(self):
        data = make_spec().canonical()
        data["version"] = 2
        restored = RunSpec.from_canonical(data)
        assert restored.shards == 1
        # Re-keying a v2 payload lands on the current version, by design:
        # the version bump is the cache-invalidation event.
        assert restored.canonical()["version"] == SPEC_VERSION

    def test_unknown_versions_still_raise(self):
        data = make_spec().canonical()
        data["version"] = 1
        with pytest.raises(ValueError):
            RunSpec.from_canonical(data)
        data["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError):
            RunSpec.from_canonical(data)


class TestPredictedCost:
    @pytest.mark.parametrize("shards", [1, 2, 4, 64])
    def test_single_shard_costs_are_unchanged_by_the_field(self, shards):
        # A sharded run costs what its serial run costs: the shard count
        # never reorders the broker's or the runner's costliest-first queue.
        base = make_spec()
        sharded = make_spec(shards=shards)
        expected = (
            float(base.config.num_tiles)
            * _stand_in_edges(base)
            * _cost_factors(base)
        )
        assert base.predicted_cost() == pytest.approx(expected)
        assert sharded.predicted_cost() == base.predicted_cost()


def _stand_in_edges(spec):
    from repro.experiments.common import experiment_scale_divisor
    from repro.graph.datasets import dataset_spec

    divisor = experiment_scale_divisor(spec.dataset, spec.scale)
    return float(dataset_spec(spec.dataset).stand_in_edges(divisor))


def _cost_factors(spec):
    from repro.experiments.common import (
        app_cost_factor,
        engine_cost_factor,
        network_cost_factor,
    )

    return (
        engine_cost_factor(spec.config.engine)
        * app_cost_factor(spec.app, spec.pagerank_iterations)
        * network_cost_factor(spec.config.network, spec.config.engine)
    )

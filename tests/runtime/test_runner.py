"""Determinism, caching and corruption-recovery tests for ExperimentRunner."""

import json
import os

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.runtime import (
    ExperimentRunner,
    ResultCache,
    RunSpec,
    result_from_payload,
    result_to_payload,
)

SCALE = 0.1


def make_specs():
    """A small mixed batch: two apps, two grids, both engines."""
    specs = []
    for app in ("bfs", "spmv"):
        for width in (2, 4):
            for engine in ("analytic", "cycle"):
                specs.append(
                    RunSpec(
                        app=app,
                        dataset="rmat16",
                        config=MachineConfig(width=width, height=width, engine=engine),
                        scale=SCALE,
                        verify=True,
                    )
                )
    return specs


def summaries(results):
    return [result.to_dict() for result in results]


@pytest.fixture(scope="module")
def serial_results():
    return ExperimentRunner(jobs=1).run_batch(make_specs())


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, serial_results):
        parallel = ExperimentRunner(jobs=2).run_batch(make_specs())
        assert summaries(parallel) == summaries(serial_results)
        for a, b in zip(parallel, serial_results):
            assert np.array_equal(a.per_tile_busy_cycles, b.per_tile_busy_cycles)
            assert np.array_equal(a.per_router_flits, b.per_router_flits)
            assert a.energy.to_dict() == b.energy.to_dict()
            assert a.counters.to_dict() == b.counters.to_dict()
            assert set(a.outputs) == set(b.outputs)
            for name in a.outputs:
                assert np.array_equal(a.outputs[name], b.outputs[name])

    def test_results_verified(self, serial_results):
        assert all(result.verified for result in serial_results)

    def test_serialization_round_trip_is_lossless(self, serial_results):
        for result in serial_results:
            clone = result_from_payload(
                json.loads(json.dumps(result_to_payload(result)))
            )
            assert clone.to_dict() == result.to_dict()
            assert np.array_equal(clone.per_tile_instructions, result.per_tile_instructions)

    def test_pool_persists_across_batches_and_close_is_idempotent(self):
        with ExperimentRunner(jobs=2) as runner:
            runner.run_batch(make_specs()[:2])
            pool = runner._pool
            assert pool is not None
            runner.run_batch(make_specs()[2:4])
            assert runner._pool is pool  # reused, not rebuilt per batch
        assert runner._pool is None
        runner.close()  # idempotent
        # A closed runner stays usable: the next parallel batch re-pools.
        assert summaries(runner.run_batch(make_specs()[4:6])) == summaries(
            ExperimentRunner().run_batch(make_specs()[4:6])
        )

    def test_spec_repeated_across_batches_simulates_once(self):
        # No on-disk cache: the runner's in-memory memo still deduplicates
        # across run_batch calls (e.g. fig9 and textstats share a point).
        spec = make_specs()[0]
        runner = ExperimentRunner()
        first = runner.run_batch([spec])
        second = runner.run_batch([spec])
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 1
        assert summaries(first) == summaries(second)

    def test_duplicate_specs_simulate_once(self):
        spec = make_specs()[0]
        runner = ExperimentRunner()
        results = runner.run_batch([spec, spec, spec])
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 2
        assert summaries(results)[0] == summaries(results)[1] == summaries(results)[2]


class TestCache:
    def test_warm_cache_short_circuits_reruns(self, tmp_path, serial_results):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs()

        cold = ExperimentRunner(cache=cache)
        cold_results = cold.run_batch(specs)
        assert cold.stats.executed == len(specs)
        assert cold.stats.cache_hits == 0
        assert len(cache) == len(specs)

        warm = ExperimentRunner(cache=cache)
        warm_results = warm.run_batch(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
        assert summaries(warm_results) == summaries(cold_results) == summaries(serial_results)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs()[:2]
        ExperimentRunner(jobs=2, cache=cache).run_batch(specs)
        warm = ExperimentRunner(jobs=1, cache=cache)
        warm.run_batch(specs)
        assert warm.stats.executed == 0

    def test_completed_work_is_cached_before_a_later_spec_fails(self, tmp_path):
        # A failing point (or a crash) mid-batch must not discard the
        # simulations that already finished -- that is what makes long
        # sweeps resumable.
        cache = ResultCache(tmp_path / "cache")
        good = make_specs()[:2]
        bad = RunSpec(
            app="bfs",
            dataset="rmat16",
            config=MachineConfig(
                # A single tile makes this the predicted-cheapest spec, so
                # adaptive ordering runs it after the good ones.
                width=1, height=1, engine="analytic", barrier=True, max_epochs=1
            ),
            scale=SCALE,
            seed=999,  # distinct key; barrier + max_epochs=1 makes the run abort
        )
        runner = ExperimentRunner(cache=cache)
        with pytest.raises(Exception):
            runner.run_batch(good + [bad])
        assert runner.stats.executed == len(good)
        assert len(cache) == len(good)
        resumed = ExperimentRunner(cache=cache)
        resumed.run_batch(good)
        assert resumed.stats.executed == 0

    def test_parallel_failure_keeps_completed_siblings(self, tmp_path):
        # jobs>1: one failing point cancels queued work but never discards
        # simulations that finish; a rerun executes only what is missing,
        # so each good spec simulates exactly once across both calls.
        cache = ResultCache(tmp_path / "cache")
        good = make_specs()[:3]
        bad = RunSpec(
            app="bfs",
            dataset="rmat16",
            config=MachineConfig(
                width=4, height=4, engine="analytic", barrier=True, max_epochs=1
            ),
            scale=SCALE,
            seed=999,
        )
        from repro.errors import SimulationError

        first = ExperimentRunner(jobs=2, cache=cache)
        with pytest.raises(SimulationError):
            first.run_batch([bad] + good)  # failure lands early in the batch
        first.close()
        resumed = ExperimentRunner(jobs=2, cache=cache)
        results = resumed.run_batch(good)
        assert first.stats.executed + resumed.stats.executed == len(good)
        assert all(result.verified for result in results)

    def test_refresh_ignores_existing_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        ExperimentRunner(cache=cache).run(spec)
        refresher = ExperimentRunner(cache=cache, refresh=True)
        refresher.run(spec)
        assert refresher.stats.executed == 1
        assert refresher.stats.cache_hits == 0

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "tampered_payload", "wrong_key"],
    )
    def test_corrupted_entry_is_recomputed_not_trusted(self, tmp_path, corruption):
        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        baseline = ExperimentRunner(cache=cache).run(spec)
        path = cache.path_for(spec.key())
        assert path.is_file()

        if corruption == "truncate":
            path.write_text(path.read_text()[: len(path.read_text()) // 2])
        elif corruption == "garbage":
            path.write_text("not json at all {")
        elif corruption == "tampered_payload":
            wrapper = json.loads(path.read_text())
            wrapper["payload"]["cycles"] = wrapper["payload"]["cycles"] + 1.0
            path.write_text(json.dumps(wrapper))
        else:  # wrong_key: a blob copied under the wrong content address
            wrapper = json.loads(path.read_text())
            wrapper["key"] = "0" * 64
            path.write_text(json.dumps(wrapper))

        runner = ExperimentRunner(cache=cache)
        recovered = runner.run(spec)
        assert runner.stats.executed == 1
        assert runner.stats.cache_hits == 0
        assert recovered.to_dict() == baseline.to_dict()
        # The recomputed result must have replaced the corrupted entry.
        fresh = ExperimentRunner(cache=cache)
        fresh.run(spec)
        assert fresh.stats.cache_hits == 1

    def test_stale_payload_format_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        baseline = ExperimentRunner(cache=cache).run(spec)
        # Rewrite the entry as a (digest-valid) blob from an older layout.
        path = cache.path_for(spec.key())
        wrapper = json.loads(path.read_text())
        wrapper["payload"]["format"] = 0
        cache.store(spec.key(), wrapper["payload"])
        runner = ExperimentRunner(cache=cache)
        result = runner.run(spec)
        assert runner.stats.executed == 1
        assert result.to_dict() == baseline.to_dict()
        # The entry was refreshed to the current layout.
        refreshed = ExperimentRunner(cache=cache)
        refreshed.run(spec)
        assert refreshed.stats.cache_hits == 1

    def test_stale_tmp_files_are_swept_fresh_ones_kept(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        stale = root / ("a" * 64 + ".tmp.123")
        fresh = root / ("b" * 64 + ".tmp.456")
        stale.write_text("{}")
        fresh.write_text("{}")
        os.utime(stale, (0, 0))  # ancient mtime: a crashed writer's leftover
        ResultCache(root)  # re-opening sweeps
        assert not stale.exists()
        assert fresh.exists()  # possibly a concurrent writer: untouched

    def test_cache_file_layout_is_content_addressed_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        ExperimentRunner(cache=cache).run(spec)
        assert cache.keys() == [spec.key()]
        wrapper = json.loads(cache.path_for(spec.key()).read_text())
        assert wrapper["key"] == spec.key()
        assert {"key", "sha256", "payload"} <= set(wrapper)


class TestAdaptiveOrdering:
    """Pending batches execute predicted-slowest first (tiles x edges), so
    the big point never straggles behind the cheap ones in a parallel sweep;
    results still return in input order."""

    def test_predicted_cost_scales_with_tiles_and_edges(self):
        small = RunSpec(app="bfs", dataset="rmat16",
                        config=MachineConfig(width=2, height=2), scale=SCALE)
        more_tiles = RunSpec(app="bfs", dataset="rmat16",
                             config=MachineConfig(width=4, height=4), scale=SCALE)
        more_edges = RunSpec(app="bfs", dataset="rmat16",
                             config=MachineConfig(width=2, height=2), scale=4 * SCALE)
        assert more_tiles.predicted_cost() == 4 * small.predicted_cost()
        assert more_edges.predicted_cost() > small.predicted_cost()

    def test_predicted_cost_knows_the_cycle_engine_is_slower(self):
        analytic = RunSpec(app="bfs", dataset="rmat16",
                           config=MachineConfig(width=2, height=2, engine="analytic"),
                           scale=SCALE)
        cycle = RunSpec(app="bfs", dataset="rmat16",
                        config=MachineConfig(width=2, height=2, engine="cycle"),
                        scale=SCALE)
        assert cycle.predicted_cost() > 4 * analytic.predicted_cost()

    def test_predicted_cost_scales_with_pagerank_iterations(self):
        def pr(iterations):
            return RunSpec(app="pagerank", dataset="rmat16",
                           config=MachineConfig(width=2, height=2), scale=SCALE,
                           pagerank_iterations=iterations)

        assert pr(10).predicted_cost() == 2 * pr(5).predicted_cost()

    def test_predicted_cost_ranks_relaxation_kernels_above_single_sweeps(self):
        def for_app(app):
            return RunSpec(app=app, dataset="rmat16",
                           config=MachineConfig(width=2, height=2),
                           scale=SCALE).predicted_cost()

        assert for_app("sssp") > for_app("wcc") > for_app("bfs") == for_app("spmv")

    def test_predicted_cost_needs_no_graph_build(self):
        from repro.runtime.spec import _GRAPH_MEMO

        before = dict(_GRAPH_MEMO)
        RunSpec(app="sssp", dataset="rmat26",
                config=MachineConfig(width=64, height=64, engine="cycle"),
                scale=1.0).predicted_cost()
        assert _GRAPH_MEMO == before  # arithmetic only, even for huge specs

    @pytest.mark.parametrize(
        "app,dataset,config",
        [
            ("bfs", "rmat16", MachineConfig(width=4, height=4)),
            ("pagerank", "rmat22", MachineConfig(width=8, height=8, engine="cycle")),
            ("sssp", "rmat16", MachineConfig(width=2, height=2, engine="cycle",
                                             network="simulated")),
            ("wcc", "rmat26", MachineConfig(width=4, height=2, depth=2, noc="torus3d")),
        ],
        ids=["bfs-analytic", "pagerank-cycle", "sssp-simulated", "wcc-3d"],
    )
    def test_predicted_cost_is_tiles_times_edges_times_factors(self, app, dataset, config):
        # The broker's and the runner's costliest-first order rests on this
        # product; pin it so no factor slips in or out unnoticed.
        from repro.experiments.common import (
            app_cost_factor,
            engine_cost_factor,
            experiment_scale_divisor,
            network_cost_factor,
        )
        from repro.graph.datasets import dataset_spec

        spec = RunSpec(app=app, dataset=dataset, config=config, scale=SCALE,
                       pagerank_iterations=4)
        edges = dataset_spec(dataset).stand_in_edges(
            experiment_scale_divisor(dataset, SCALE)
        )
        expected = (
            float(config.num_tiles)
            * float(edges)
            * engine_cost_factor(config.engine)
            * app_cost_factor(app, 4)
            * network_cost_factor(config.network, config.engine)
        )
        assert spec.predicted_cost() == pytest.approx(expected)

    def test_pending_specs_execute_costliest_first(self, monkeypatch):
        import repro.runtime.backends as backends_module

        executed_widths = []
        original = backends_module.execute_to_payload

        def spying(spec):
            executed_widths.append(spec.config.width)
            return original(spec)

        monkeypatch.setattr(backends_module, "execute_to_payload", spying)
        specs = [
            RunSpec(app="spmv", dataset="rmat16",
                    config=MachineConfig(width=width, height=width, engine="analytic"),
                    scale=SCALE)
            for width in (1, 4, 2)  # deliberately not cost-ordered
        ]
        results = ExperimentRunner(jobs=1).run_batch(specs)
        assert executed_widths == [4, 2, 1]
        # Output order still matches input order.
        assert [result.num_tiles for result in results] == [1, 16, 4]

    def test_ordering_does_not_change_results(self, serial_results):
        # make_specs() is not cost-sorted, so this batch exercised reordering;
        # byte-stability vs the module fixture pins output invariance.
        reordered = ExperimentRunner(jobs=1).run_batch(make_specs())
        assert summaries(reordered) == summaries(serial_results)


class TestCacheManagement:
    def populate(self, tmp_path, count=3):
        cache = ResultCache(tmp_path / "cache")
        runner = ExperimentRunner(cache=cache)
        for spec in make_specs()[:count]:
            runner.run(spec)
        return cache

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = self.populate(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 3
        sizes = sum(path.stat().st_size for path in (tmp_path / "cache").glob("*.json"))
        assert stats["total_bytes"] == sizes > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_empty_cache_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0
        assert stats["oldest_mtime"] is None

    def test_prune_evicts_oldest_first_until_under_budget(self, tmp_path):
        cache = self.populate(tmp_path)
        entries = sorted(cache._entries())
        oldest_key = entries[0][2].stem
        keep_bytes = sum(size for _mtime, size, _path in entries[1:])
        evicted = cache.prune(keep_bytes)
        assert evicted == [oldest_key]
        assert cache.stats()["total_bytes"] <= keep_bytes
        assert oldest_key not in cache

    def test_prune_to_zero_clears_the_cache(self, tmp_path):
        cache = self.populate(tmp_path)
        evicted = cache.prune(0)
        assert len(evicted) == 3
        assert len(cache) == 0

    def test_prune_dry_run_deletes_nothing(self, tmp_path):
        cache = self.populate(tmp_path)
        evicted = cache.prune(0, dry_run=True)
        assert len(evicted) == 3
        assert len(cache) == 3

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = self.populate(tmp_path)
        assert cache.prune(cache.stats()["total_bytes"]) == []
        assert len(cache) == 3

    def test_prune_does_not_report_undeletable_entries_as_evicted(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        cache = self.populate(tmp_path)
        protected = sorted(cache._entries())[0][2]
        original = pathlib.Path.unlink

        def flaky_unlink(self, *args, **kwargs):
            if self == protected:
                raise OSError("permission denied")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "unlink", flaky_unlink)
        evicted = cache.prune(0)
        assert protected.stem not in evicted
        assert len(evicted) == 2
        assert protected.exists()

    def test_prune_rejects_negative_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_pruned_entries_are_recomputed_on_demand(self, tmp_path):
        cache = self.populate(tmp_path, count=2)
        cache.prune(0)
        runner = ExperimentRunner(cache=cache)
        runner.run_batch(make_specs()[:2])
        assert runner.stats.executed == 2
        assert len(cache) == 2

    def test_unknown_policy_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="policy"):
            cache.prune(0, policy="mru")

    def test_lru_prune_keeps_the_recently_loaded_entry(self, tmp_path):
        # Store three entries oldest-first, then load the *oldest* one: FIFO
        # would evict it first, LRU must keep it and evict the middle one.
        cache = self.populate(tmp_path)
        ordered = [path.stem for _mtime, _size, path in sorted(cache._entries())]
        oldest = ordered[0]
        self._age_entries(cache, ordered)
        assert cache.load(oldest) is not None  # bumps its access time
        keep_bytes = cache.stats()["total_bytes"] - 1  # force exactly one out
        evicted = cache.prune(keep_bytes, policy="lru")
        assert evicted == [ordered[1]]
        assert oldest in cache

    def test_fifo_prune_ignores_loads(self, tmp_path):
        cache = self.populate(tmp_path)
        ordered = [path.stem for _mtime, _size, path in sorted(cache._entries())]
        self._age_entries(cache, ordered)
        assert cache.load(ordered[0]) is not None
        evicted = cache.prune(cache.stats()["total_bytes"] - 1, policy="fifo")
        assert evicted == [ordered[0]]  # store order, not use order

    @staticmethod
    def _age_entries(cache, ordered_keys):
        """Spread store/access stamps seconds apart (test runs are too fast
        for mtime resolution otherwise)."""
        for index, key in enumerate(ordered_keys):
            stamp = 1_000_000_000 + index * 10
            os.utime(cache.path_for(key), (stamp, stamp))


class TestConcurrentStore:
    def test_parallel_writers_on_one_entry_all_succeed(self, tmp_path):
        # Many workers sharing one --cache-dir race on the same key; every
        # store must succeed and the entry must stay valid.
        import threading

        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        payload = result_to_payload(ExperimentRunner().run(spec))
        errors = []

        def write():
            try:
                for _ in range(10):
                    cache.store(spec.key(), payload)
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.load(spec.key()) == payload
        assert not list((tmp_path / "cache").glob("*.tmp.*"))  # no litter

    def test_losing_the_rename_race_is_a_hit_not_an_error(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        payload = result_to_payload(ExperimentRunner().run(spec))
        cache.store(spec.key(), payload)  # the twin that "won"

        def refusing_replace(src, dst):
            raise OSError("rename collision (network filesystem)")

        monkeypatch.setattr(os, "replace", refusing_replace)
        path = cache.store(spec.key(), payload)  # must not raise
        assert path == cache.path_for(spec.key())
        monkeypatch.undo()
        assert cache.load(spec.key()) == payload

    def test_losing_the_race_without_a_valid_twin_still_raises(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = make_specs()[0]
        payload = result_to_payload(ExperimentRunner().run(spec))

        def refusing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refusing_replace)
        with pytest.raises(OSError, match="disk full"):
            cache.store(spec.key(), payload)


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_payload_format_mismatch_rejected(self, serial_results):
        payload = result_to_payload(serial_results[0])
        payload["format"] = 999
        with pytest.raises(ValueError, match="format"):
            result_from_payload(payload)

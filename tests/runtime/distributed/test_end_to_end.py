"""In-process fleet: ExperimentRunner on the distributed backend.

The acceptance bar: a batch executed by a broker plus two workers is
byte-identical to serial in-process execution, including through the shared
result cache and with verified ingest enabled.  A ``shutdown`` op then
stops the whole fleet within the broker's grace window.
"""

import json
import threading
import time

import numpy as np

from repro.runtime import ExperimentRunner, ResultCache
from repro.runtime.distributed import (
    Broker,
    BrokerServer,
    DistributedBackend,
    Worker,
    request,
)
from repro.runtime.distributed.broker import SHUTDOWN_GRACE_SECONDS

from distributed_helpers import fleet, make_spec, make_specs


def summaries(results):
    return [result.to_dict() for result in results]


def distributed_runner(server, cache=None, timeout=300.0):
    backend = DistributedBackend(server.address, poll_interval=0.02, timeout=timeout)
    return ExperimentRunner(cache=cache, backend=backend)


class TestEquivalence:
    def test_fleet_matches_serial_bit_for_bit(self):
        specs = make_specs()
        serial = ExperimentRunner().run_batch(specs)
        with fleet(Broker(verify_ingest=True), num_workers=2) as (server, _workers):
            remote = distributed_runner(server).run_batch(specs)
        assert json.dumps(summaries(remote), sort_keys=True) == json.dumps(
            summaries(serial), sort_keys=True
        )
        for ours, theirs in zip(serial, remote):
            assert np.array_equal(ours.per_tile_busy_cycles, theirs.per_tile_busy_cycles)
            assert np.array_equal(ours.per_router_flits, theirs.per_router_flits)
            for name in ours.outputs:
                assert np.array_equal(ours.outputs[name], theirs.outputs[name])

    def test_duplicates_within_a_batch_simulate_once(self):
        spec = make_spec()
        broker = Broker()
        with fleet(broker, num_workers=2) as (server, _workers):
            runner = distributed_runner(server)
            results = runner.run_batch([spec, spec, spec])
        assert runner.stats.deduplicated == 2
        assert broker.stats.completed == 1
        assert summaries(results)[0] == summaries(results)[2]

    def test_shared_cache_short_circuits_the_fleet(self, tmp_path):
        specs = make_specs()[:2]
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(cache=cache)
        with fleet(broker, num_workers=2) as (server, _workers):
            cold = distributed_runner(server, cache=cache)
            cold.run_batch(specs)
            assert cold.stats.executed == len(specs)
            # Client-side cache hit: the fleet never even sees the specs.
            warm = distributed_runner(server, cache=cache)
            warm.run_batch(specs)
            assert warm.stats.cache_hits == len(specs)
            assert warm.stats.executed == 0
        assert broker.stats.completed == len(specs)  # once, not twice

    def test_broker_side_cache_serves_clients_without_one(self, tmp_path):
        # Two clients, no local cache, same broker cache: the second batch
        # is answered from the broker's cache, with zero new leases.
        specs = make_specs()[:2]
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(cache=cache)
        with fleet(broker, num_workers=1) as (server, _workers):
            first = distributed_runner(server).run_batch(specs)
            leases_after_first = broker.stats.leases
            second = distributed_runner(server).run_batch(specs)
            assert broker.stats.leases == leases_after_first
        assert summaries(first) == summaries(second)

    def test_worker_stats_account_for_the_batch(self):
        specs = make_specs()
        with fleet(Broker(), num_workers=2) as (server, workers):
            distributed_runner(server).run_batch(specs)
        assert sum(worker.completed for worker in workers) == len(specs)
        assert all(worker.rejected == 0 for worker in workers)


class TestShutdown:
    def test_idle_worker_exits_within_the_grace_window(self):
        server = BrokerServer(Broker())
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        lines = []
        worker = Worker(server.address, worker_id="idle", log=lines.append)
        working = threading.Thread(target=worker.run, daemon=True)
        working.start()
        try:
            time.sleep(0.6)  # the worker is idle, between empty polls
            request(server.address, {"op": "shutdown"})
            shut_down = time.monotonic()
            # The server still answers inside the window, and every lease
            # there tells its worker to exit.
            late = request(server.address, {"op": "lease", "worker": "late"})
            assert (late["key"], late["shutdown"]) == (None, True)
            working.join(timeout=3.0)
            assert not working.is_alive(), "idle worker missed the shutdown"
            assert time.monotonic() - shut_down < 3.0
            assert "[idle] broker shut down; exiting" in lines
            serving.join(timeout=SHUTDOWN_GRACE_SECONDS + 1.0)
            assert not serving.is_alive(), "server outlived its grace window"
            assert time.monotonic() - shut_down < SHUTDOWN_GRACE_SECONDS + 1.0
        finally:
            worker.stop()
            server.stop()

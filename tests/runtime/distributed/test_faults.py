"""Fault injection: crashed workers, poisoned uploads, broker restarts.

The distributed backend's promise is that none of these lose or corrupt
results -- batches complete with byte-identical payloads as long as one
honest worker survives, and a broker restart resumes the pending queue.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.runtime import (
    ExperimentRunner,
    ResultCache,
    RunSpec,
    execute_to_payload,
    payload_digest,
)
from repro.runtime.distributed import (
    Broker,
    BrokerServer,
    DistributedBackend,
    Worker,
)
from repro.runtime.distributed.protocol import (
    compress_payload,
    format_address,
    request,
)

from distributed_helpers import fleet, make_spec, make_specs


def summaries(results):
    return [result.to_dict() for result in results]


def crashy_executor(canonical):
    """Simulates a worker whose process dies mid-run: the lease is taken but
    no result, release or heartbeat ever arrives."""
    raise _WorkerDied()


class _WorkerDied(Exception):
    pass


class CrashOnceWorker(Worker):
    """Leases one spec, 'dies' (stops without releasing), never comes back."""

    def __init__(self, address, **kwargs):
        super().__init__(address, executor=self._explode, **kwargs)
        self._hit = threading.Event()

    def _explode(self, canonical):
        self._hit.set()
        self.stop()
        raise _WorkerDied()

    def _send_quietly(self, message):
        # A dead process sends nothing: swallow the release and heartbeats.
        if message.get("op") in ("release", "heartbeat"):
            return None
        return super()._send_quietly(message)


class TestWorkerCrash:
    def test_killed_worker_spec_requeued_and_completed_by_survivor(self):
        specs = make_specs()
        serial = ExperimentRunner().run_batch(specs)

        broker = Broker(lease_timeout=0.3, max_attempts=5)
        # Pre-load the queue so the victim has something to die on; the
        # client's own submit below deduplicates against these.
        broker.submit([spec.canonical() for spec in specs])
        with BrokerServer(broker) as server:
            victim = CrashOnceWorker(server.address, worker_id="victim",
                                     poll_interval=0.02)
            victim_thread = threading.Thread(target=victim.run, daemon=True)
            victim_thread.start()
            victim._hit.wait(timeout=10.0)  # it leased a spec and died
            assert victim._hit.is_set()

            survivor = Worker(server.address, worker_id="survivor",
                              poll_interval=0.02)
            survivor_thread = threading.Thread(target=survivor.run, daemon=True)
            survivor_thread.start()
            try:
                backend = DistributedBackend(
                    server.address, poll_interval=0.02, timeout=300.0
                )
                remote = ExperimentRunner(backend=backend).run_batch(specs)
            finally:
                survivor.stop()
                victim.stop()
                broker.shutdown()
                survivor_thread.join(timeout=10.0)
                victim_thread.join(timeout=10.0)

        assert summaries(remote) == summaries(serial)
        assert broker.stats.expired_leases >= 1  # the crash was detected
        assert survivor.completed == len(specs)

    def test_polite_executor_failure_releases_immediately(self):
        # An executor that raises (rather than dying) releases its lease, so
        # recovery does not wait for the timeout.  The flaky worker runs
        # alone first so it is guaranteed to be the one that leases.
        broker = Broker(lease_timeout=3600.0, max_attempts=5)
        spec = make_spec()
        broker.submit([spec.canonical()])
        with BrokerServer(broker) as server:
            flaky = Worker(server.address, worker_id="flaky",
                           poll_interval=0.02, executor=crashy_executor)

            def run_flaky_once():
                # One lease + release, then stop (a worker whose bad batch
                # made it exit, not crash).
                while broker.stats.requeues == 0 and not flaky._stop.is_set():
                    flaky._stop.wait(0.02)
                flaky.stop()

            watcher = threading.Thread(target=run_flaky_once, daemon=True)
            watcher.start()
            flaky_thread = threading.Thread(target=flaky.run, daemon=True)
            flaky_thread.start()
            flaky_thread.join(timeout=30.0)
            assert broker.stats.requeues >= 1  # released without any expiry
            assert broker.stats.expired_leases == 0

            honest = Worker(server.address, worker_id="honest", poll_interval=0.02)
            honest_thread = threading.Thread(target=honest.run, daemon=True)
            honest_thread.start()
            try:
                backend = DistributedBackend(
                    server.address, poll_interval=0.02, timeout=120.0
                )
                results = ExperimentRunner(backend=backend).run_batch([spec])
            finally:
                honest.stop()
                broker.shutdown()
                honest_thread.join(timeout=10.0)
                watcher.join(timeout=10.0)
        assert results[0].verified
        assert broker.stats.expired_leases == 0  # release, not expiry
        assert honest.completed == 1


class TestPoisonedPayload:
    def poison_executor(self, canonical):
        """A malicious worker: returns a digest-consistent but wrong payload
        (the digest is computed over the poisoned bytes, so only the
        structural/oracle ingest checks can catch it)."""
        _key, payload = execute_to_payload(RunSpec.from_canonical(canonical))
        payload["width"] = payload["width"] + 1  # no longer matches the spec
        return payload

    def test_poisoned_payload_rejected_then_reexecuted_honestly(self):
        spec = make_spec()
        serial = ExperimentRunner().run_batch([spec])

        broker = Broker(lease_timeout=60.0, max_attempts=5)
        broker.submit([spec.canonical()])  # give the poisoner its target now
        with BrokerServer(broker) as server:
            poisoner = Worker(server.address, worker_id="poisoner",
                              poll_interval=0.02, executor=self.poison_executor,
                              max_runs=1)
            poisoner_thread = threading.Thread(target=poisoner.run, daemon=True)
            poisoner_thread.start()
            # Wait until the poisoned upload was rejected and requeued.
            deadline = time.monotonic() + 30.0
            while broker.stats.rejected == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert broker.stats.rejected >= 1
            poisoner.stop()
            poisoner_thread.join(timeout=10.0)

            honest = Worker(server.address, worker_id="honest", poll_interval=0.02)
            honest_thread = threading.Thread(target=honest.run, daemon=True)
            honest_thread.start()
            try:
                backend = DistributedBackend(
                    server.address, poll_interval=0.02, timeout=120.0
                )
                remote = ExperimentRunner(backend=backend).run_batch([spec])
            finally:
                honest.stop()
                broker.shutdown()
                honest_thread.join(timeout=10.0)

        assert summaries(remote) == summaries(serial)
        # The poisoner may have re-leased the requeued spec before stopping;
        # what matters is that nothing it sent was ever accepted.
        assert poisoner.rejected >= 1
        assert poisoner.completed == 0
        assert honest.completed == 1

    def test_raw_garbage_upload_rejected_by_digest(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        with BrokerServer(broker) as server:
            lease = request(server.address, {"op": "lease", "worker": "evil"})
            assert lease["key"] == key
            outcome = request(
                server.address,
                {"op": "result", "worker": "evil", "key": key,
                 "sha256": payload_digest(payload),  # claims the honest digest
                 "payload_gz": compress_payload({"format": 1, "garbage": True})},
            )
        assert outcome["accepted"] is False
        assert "digest mismatch" in outcome["reason"]

    def test_client_drains_completed_work_before_raising(self, real_payload):
        # One spec failed at the attempt cap, one completed: the backend
        # must stream the completed payload (so the runner caches it)
        # before surfacing the failure -- same contract as the pool backend.
        key, payload = real_payload
        good = make_spec()
        bad = make_spec(seed=99)

        class FakeClock:
            now = 1000.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=1, clock=clock)
        broker.submit([good.canonical(), bad.canonical()])
        assert broker.lease("w0")["key"] == good.key()  # submit order at equal cost
        assert broker.lease("w0")["key"] == bad.key()
        from repro.runtime import payload_digest as digest

        assert broker.ingest("w0", key, digest(payload), payload)["accepted"]
        clock.now += 6.0  # bad's lease expires; cap of 1 -> failed
        with BrokerServer(broker) as server:
            backend = DistributedBackend(server.address, poll_interval=0.01,
                                         timeout=60.0)
            drained = []
            with pytest.raises(SimulationError, match="gave up"):
                for item in backend.execute([good, bad]):
                    drained.append(item)
        assert [k for k, _payload in drained] == [good.key()]

    def test_attempt_cap_stops_a_poison_only_fleet(self):
        # Every worker is malicious: the spec must fail with the broker's
        # reason, not spin forever.
        spec = make_spec()
        broker = Broker(lease_timeout=60.0, max_attempts=2)
        with fleet(broker, num_workers=1, executor=self.poison_executor) as (
            server,
            _workers,
        ):
            backend = DistributedBackend(
                server.address, poll_interval=0.02, timeout=120.0
            )
            with pytest.raises(SimulationError, match="gave up"):
                ExperimentRunner(backend=backend).run_batch([spec])


class TestBrokerRestart:
    def test_restarted_broker_resumes_the_pending_queue(self, tmp_path):
        specs = make_specs()
        serial = ExperimentRunner().run_batch(specs)
        cache = tmp_path / "cache"
        state = tmp_path / "state.json"

        # First broker: accept the batch and one result, then "crash".
        broker1 = Broker(cache=ResultCache(cache), state_path=state,
                         lease_timeout=60.0)
        with BrokerServer(broker1) as server1:
            request(
                server1.address,
                {"op": "submit", "specs": [spec.canonical() for spec in specs]},
            )
            lone = Worker(server1.address, worker_id="lone",
                          poll_interval=0.02, max_runs=1)
            lone.run()  # completes exactly one spec, then exits
            assert lone.completed == 1
        assert broker1.status()["pending"] == len(specs) - 1

        # Second broker process: same state file, same cache.
        broker2 = Broker(cache=ResultCache(cache), state_path=state,
                         lease_timeout=60.0)
        assert broker2.status()["pending"] == len(specs) - 1
        with BrokerServer(broker2) as server2:
            worker = Worker(server2.address, worker_id="resumer", poll_interval=0.02)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                backend = DistributedBackend(
                    server2.address, poll_interval=0.02, timeout=300.0
                )
                remote = ExperimentRunner(backend=backend).run_batch(specs)
            finally:
                worker.stop()
                broker2.shutdown()
                thread.join(timeout=10.0)

        assert summaries(remote) == summaries(serial)
        # The pre-crash result was served from the cache, not re-simulated.
        assert worker.completed == len(specs) - 1

    def test_client_survives_a_mid_batch_restart(self, tmp_path):
        # The backend retries transport errors, so a broker bounce between
        # submit and fetch only delays the batch.
        spec = make_spec()
        serial = ExperimentRunner().run_batch([spec])
        cache = tmp_path / "cache"
        state = tmp_path / "state.json"

        broker1 = Broker(cache=ResultCache(cache), state_path=state)
        server1 = BrokerServer(broker1).start()
        address = server1.address
        request(address, {"op": "submit", "specs": [spec.canonical()]})
        server1.stop()  # the broker dies with the batch pending

        # Port reuse: bind a fresh broker on the same address.
        broker2 = Broker(cache=ResultCache(cache), state_path=state)
        server2 = BrokerServer(broker2, host=address[0], port=address[1]).start()
        worker = Worker(server2.address, worker_id="w", poll_interval=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            backend = DistributedBackend(address, poll_interval=0.02, timeout=300.0)
            remote = ExperimentRunner(backend=backend).run_batch([spec])
        finally:
            worker.stop()
            broker2.shutdown()
            thread.join(timeout=10.0)
            server2.stop()
        assert summaries(remote) == summaries(serial)


REPO = Path(__file__).resolve().parents[3]


def _spawn_worker(address, tag):
    """A ``dalorex worker`` process polling the broker at ``address``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", address, "--worker-id", tag,
         "--poll-interval", "0.05", "--patience", "60", "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class TestWorkerProcessKill:
    def test_sigkilled_worker_process_requeues_its_spec(self):
        """SIGKILL a real ``dalorex worker`` process while it simulates: the
        lease expires, the spec requeues, and a replacement worker process
        finishes it with a byte-identical payload."""
        # Big enough (about a second of work) that the kill lands mid-run.
        spec = dataclasses.replace(make_spec(app="sssp", width=4), scale=8.0)
        key, reference = execute_to_payload(spec)
        broker = Broker(lease_timeout=1.0, max_attempts=5)
        broker.submit([spec.canonical()])
        processes = {}
        try:
            with BrokerServer(broker) as server:
                address = format_address(server.address)
                processes["victim"] = _spawn_worker(address, "victim")
                deadline = time.monotonic() + 60.0
                while (broker.status()["leased"] == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert broker.status()["leased"] == 1, "the spec was never leased"
                processes["victim"].send_signal(signal.SIGKILL)
                processes["victim"].wait(timeout=10)
                # Spawned only now, so the victim is certain to hold the lease.
                processes["replacement"] = _spawn_worker(address, "replacement")
                payload = None
                deadline = time.monotonic() + 120.0
                while payload is None and time.monotonic() < deadline:
                    payload = broker.fetch_payload(key)
                    if payload is None:
                        time.sleep(0.1)
                assert payload is not None, "the fleet never recovered"
                assert payload == reference
                assert broker.stats.expired_leases >= 1
                ledgers = broker.status()["per_worker"]
                assert ledgers["victim"]["completed"] == 0
                assert ledgers["replacement"]["completed"] == 1
                broker.shutdown()
                # Drain the replacement while the server can still answer
                # its lease poll with the shutdown notice.
                processes["replacement"].wait(timeout=30)
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)

"""The per-worker ledger of the ``status`` op, and gzip payload transport."""

import time

from repro.runtime.cache import ResultCache, payload_digest
from repro.runtime.distributed import Broker, BrokerServer, Worker, request
from repro.runtime.distributed.protocol import compress_payload, decompress_payload

from distributed_helpers import fleet, make_spec, make_specs


def wait_until(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerLedger:
    def test_status_reports_queue_leases_and_workers(self):
        broker = Broker()
        specs = make_specs()
        broker.submit([spec.canonical() for spec in specs])
        status = broker.status()
        assert (status["pending"], status["leased"]) == (len(specs), 0)
        assert status["per_worker"] == {}
        assert status["uptime_seconds"] >= 0

        broker.lease("w0")
        broker.lease("w0")
        broker.release("w1", broker.lease("w1")["key"])
        status = broker.status()
        assert (status["pending"], status["leased"]) == (len(specs) - 2, 2)
        assert status["per_worker"] == {
            "w0": {"leases": 2, "completed": 0, "rejected": 0, "released": 0},
            "w1": {"leases": 1, "completed": 0, "rejected": 0, "released": 1},
        }

    def test_per_worker_completions_accumulate_over_a_real_fleet(self):
        broker = Broker()
        specs = make_specs()
        with fleet(broker, num_workers=2) as (server, workers):
            broker.submit([spec.canonical() for spec in specs])
            assert wait_until(
                lambda: broker.status()["completed"] == len(specs)
            )
            status = request(server.address, {"op": "status"})
        per_worker = status["per_worker"]
        assert sum(w["completed"] for w in per_worker.values()) == len(specs)
        assert (status["pending"], status["leased"]) == (0, 0)

    def test_rejected_uploads_are_ledgered(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        broker.lease("evil")
        response = broker.ingest("evil", key, "0" * 64, payload)
        assert not response["accepted"]
        assert broker.status()["per_worker"]["evil"]["rejected"] == 1


class TestGzipTransport:
    def test_compress_round_trips_and_preserves_digest(self, real_payload):
        _key, payload = real_payload
        blob = compress_payload(payload)
        assert isinstance(blob, str)
        restored = decompress_payload(blob)
        assert restored == payload
        assert payload_digest(restored) == payload_digest(payload)
        # And it actually compresses (the point of the satellite).
        import json

        plain = len(json.dumps(payload, separators=(",", ":")))
        assert len(blob) < plain

    def test_gzip_upload_is_verified_and_accepted(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        with BrokerServer(broker) as server:
            broker.submit([make_spec().canonical()])
            lease = broker.lease("w0")
            assert lease["key"] == key
            response = request(
                server.address,
                {
                    "op": "result",
                    "worker": "w0",
                    "key": key,
                    "sha256": payload_digest(payload),
                    "payload_gz": compress_payload(payload),
                },
            )
            assert response["accepted"]
            fetched = request(server.address, {"op": "fetch", "keys": [key]})
            assert decompress_payload(fetched["results_gz"][key]) == payload

    def test_corrupt_gzip_upload_is_rejected_not_fatal(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        with BrokerServer(broker) as server:
            broker.submit([make_spec().canonical()])
            broker.lease("w0")
            response = request(
                server.address,
                {
                    "op": "result",
                    "worker": "w0",
                    "key": key,
                    "sha256": payload_digest(payload),
                    "payload_gz": "!!! not base64 gzip !!!",
                },
            )
            assert not response["accepted"]
            # The reason is the transport diagnosis of the broken blob.
            assert "decompress" in response["reason"]
            # The spec is requeued, not lost.
            assert broker.status()["pending"] == 1

    def test_fetch_ships_compressed_results(self, real_payload):
        key, payload = real_payload
        cache = None
        broker = Broker(cache=cache)
        with BrokerServer(broker) as server:
            broker.submit([make_spec().canonical()])
            broker.lease("w0")
            broker.ingest("w0", key, payload_digest(payload), payload)
            fetched = request(server.address, {"op": "fetch", "keys": [key]})
            # One encoding: no plain ``results`` map beside ``results_gz``.
            assert "results" not in fetched
            assert fetched["results_gz"][key] == compress_payload(payload)
            assert decompress_payload(fetched["results_gz"][key]) == payload

    def test_worker_uploads_only_payload_gz(self, real_payload):
        """One upload encoding: the worker never falls back to a plain
        ``payload``, even when the broker rejects the upload with the
        empty-payload reason an old broker gave for a gzip upload."""
        key, payload = real_payload
        worker = Worker(("127.0.0.1", 1), worker_id="w0")
        sent = []

        def rejecting_broker(message):
            sent.append(message)
            return {"accepted": False,
                    "reason": "payload is not an object: NoneType"}

        worker._send_quietly = rejecting_broker
        for _ in range(2):
            response = worker._upload(key, payload)
            assert response is not None and not response["accepted"]
        assert len(sent) == 2  # one message per upload, no resend
        for message in sent:
            assert "payload" not in message
            assert message["sha256"] == payload_digest(payload)
            assert decompress_payload(message["payload_gz"]) == payload

    def test_end_to_end_fleet_uses_gzip_by_default(self):
        """Full fleet run: results land through gzip uploads and gzip
        fetches, byte-identical to local execution."""
        from repro.runtime import ExperimentRunner
        from repro.runtime.backends import execute_to_payload
        from repro.runtime.distributed.client import DistributedBackend

        broker = Broker()
        specs = make_specs()
        expected = {spec.key(): execute_to_payload(spec)[1] for spec in specs}
        with fleet(broker, num_workers=2) as (server, workers):
            backend = DistributedBackend(server.address, poll_interval=0.02)
            with ExperimentRunner(backend=backend) as runner:
                results = runner.run_batch(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert result.cycles == expected[spec.key()]["cycles"]

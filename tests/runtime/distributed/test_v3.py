"""Protocol v3: structured codes and chunked fetch."""

import json

import pytest

from repro.runtime import ExperimentRunner
from repro.runtime.backends import execute_to_payload
from repro.runtime.cache import payload_digest
from repro.runtime.distributed import (
    Broker,
    BrokerError,
    BrokerServer,
    DistributedBackend,
    request,
)
from repro.runtime.distributed.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_KEY,
    ERR_UNKNOWN_OP,
    FAIL_GAVE_UP,
    FAIL_NEVER_SUBMITTED,
    REJECT_BAD_PAYLOAD,
    REJECT_DIGEST_MISMATCH,
    compress_payload,
    decompress_payload,
)

from distributed_helpers import fleet, make_spec, make_specs


def canonical_bytes(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class TestFailureCodes:
    def test_give_up_carries_gave_up_code(self):
        broker = Broker(max_attempts=1)
        spec = make_spec()
        broker.submit([spec.canonical()])
        broker.lease("w0")
        broker.release("w0", spec.key(), error="executor exploded")
        fetched = broker.fetch([spec.key()])
        assert spec.key() in fetched["failed"]
        assert fetched["failed_codes"][spec.key()] == FAIL_GAVE_UP

    def test_unknown_key_carries_never_submitted_code(self):
        broker = Broker()
        fetched = broker.fetch(["no-such-key"])
        assert fetched["failed"]["no-such-key"] == "never submitted to this broker"
        assert fetched["failed_codes"]["no-such-key"] == FAIL_NEVER_SUBMITTED
        assert broker.status()["codes"] == {FAIL_NEVER_SUBMITTED: 1}

    def test_error_responses_carry_codes(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        with BrokerServer(broker) as server:
            with pytest.raises(BrokerError) as unknown_op:
                request(server.address, {"op": "frobnicate"})
            assert unknown_op.value.code == ERR_UNKNOWN_OP
            with pytest.raises(BrokerError) as bad_specs:
                request(
                    server.address, {"op": "submit", "specs": [{"bogus": 1}]}
                )
            assert bad_specs.value.code == ERR_BAD_REQUEST
            broker.submit([make_spec().canonical()])
            broker.lease("w0")
            rejected = request(
                server.address,
                {
                    "op": "result",
                    "worker": "w0",
                    "key": key,
                    "sha256": "0" * 64,
                    "payload_gz": compress_payload(payload),
                },
            )
            assert not rejected["accepted"]
            assert rejected["code"] == REJECT_DIGEST_MISMATCH

    def test_upload_without_payload_gz_is_a_bad_payload(self, real_payload):
        # A plain ``payload`` field is not an encoding the broker reads,
        # even with the correct digest: rejected and requeued.
        key, payload = real_payload
        broker = Broker()
        with BrokerServer(broker) as server:
            broker.submit([make_spec().canonical()])
            broker.lease("w0")
            rejected = request(
                server.address,
                {
                    "op": "result",
                    "worker": "w0",
                    "key": key,
                    "sha256": payload_digest(payload),
                    "payload": payload,
                },
            )
        assert not rejected["accepted"]
        assert rejected["code"] == REJECT_BAD_PAYLOAD
        assert "payload_gz" in rejected["reason"]
        assert broker.status()["pending"] == 1


class TestChunkedFetch:
    def test_fetch_defers_payloads_over_the_frame_budget(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)
        with BrokerServer(broker) as server:
            response = request(
                server.address,
                {"op": "fetch", "keys": [key], "max_frame_bytes": 64},
            )
            assert response["results_gz"] == {}
            assert response["chunked"][key] == len(compress_payload(payload))
            # Without a budget the payload still arrives inline.
            inline = request(server.address, {"op": "fetch", "keys": [key]})
            assert decompress_payload(inline["results_gz"][key]) == payload
            assert inline["chunked"] == {}

    def test_fetch_without_a_budget_gets_half_the_frame_cap(self, real_payload):
        key, payload = real_payload
        blob_size = len(compress_payload(payload))
        broker = Broker()
        broker.submit([make_spec().canonical()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)
        # A cap just under twice the blob defers it; just over inlines it.
        for cap, chunked in ((2 * blob_size - 2, True), (2 * blob_size, False)):
            with BrokerServer(broker, max_message_bytes=cap) as server:
                response = request(
                    server.address, {"op": "fetch", "keys": [key]}
                )
            if chunked:
                assert response["chunked"] == {key: blob_size}
                assert response["results_gz"] == {}
            else:
                assert response["chunked"] == {}
                assert decompress_payload(response["results_gz"][key]) == payload

    def test_chunk_stream_reassembles_byte_identically(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)
        blob = compress_payload(payload)
        with BrokerServer(broker) as server:
            pieces, offset = [], 0
            while True:
                chunk = request(
                    server.address,
                    {
                        "op": "fetch_chunk",
                        "key": key,
                        "offset": offset,
                        "max_bytes": 37,  # deliberately misaligned slices
                    },
                )
                assert chunk["total_bytes"] == len(blob)
                pieces.append(chunk["data"])
                offset += len(chunk["data"])
                if chunk["eof"]:
                    break
        assert "".join(pieces) == blob  # byte-equal reassembly

    def test_fetch_chunk_errors_are_typed(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)
        with BrokerServer(broker) as server:
            with pytest.raises(BrokerError) as unknown:
                request(
                    server.address,
                    {"op": "fetch_chunk", "key": "no-such-key", "offset": 0},
                )
            assert unknown.value.code == ERR_UNKNOWN_KEY
            with pytest.raises(BrokerError) as bad_offset:
                request(
                    server.address,
                    {"op": "fetch_chunk", "key": key, "offset": 10**9},
                )
            assert bad_offset.value.code == ERR_BAD_REQUEST

    def test_client_streams_chunked_results_end_to_end(self):
        """A client with a tiny frame budget gets every payload through the
        chunked path, byte-identical to local execution."""
        broker = Broker()
        specs = make_specs()
        expected = {spec.key(): execute_to_payload(spec)[1] for spec in specs}
        with fleet(broker, num_workers=2) as (server, _workers):
            backend = DistributedBackend(
                server.address, poll_interval=0.02, max_frame_bytes=4096
            )
            with ExperimentRunner(backend=backend) as runner:
                runner.run_batch(specs)
            # Bypass the runner's Result view and compare raw payloads.
            backend2 = DistributedBackend(
                server.address, poll_interval=0.02, max_frame_bytes=4096
            )
            fetched = dict(backend2.execute(specs))
        assert set(fetched) == set(expected)
        for key in expected:
            assert canonical_bytes(fetched[key]) == canonical_bytes(expected[key])

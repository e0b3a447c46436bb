"""Framing, addressing and request/response semantics of the wire protocol."""

import base64
import gzip
import io
import socket
import socketserver
import threading

import pytest

from repro.runtime import payload_digest
from repro.runtime.distributed import Broker, BrokerServer
from repro.runtime.distributed.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_PROTOCOL,
    PROTOCOL,
    BrokerError,
    ProtocolError,
    compress_payload,
    decompress_payload,
    encode_message,
    format_address,
    parse_address,
    read_message,
    request,
)

from distributed_helpers import make_spec


class TestAddresses:
    def test_host_port_round_trip(self):
        assert parse_address("example.com:4573") == ("example.com", 4573)
        assert format_address(("example.com", 4573)) == "example.com:4573"

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address("4573") == ("127.0.0.1", 4573)
        assert parse_address(":4573") == ("127.0.0.1", 4573)

    @pytest.mark.parametrize("bogus", ["", "host:", "host:notaport", "host:0", "host:70000"])
    def test_malformed_addresses_rejected(self, bogus):
        with pytest.raises(ProtocolError):
            parse_address(bogus)

    def test_ipv6_bracket_form_round_trips(self):
        # Regression: rpartition(":") used to parse "::1" as host ":" with
        # port 1 -- IPv6 literals were unusable.
        assert parse_address("[::1]:4573") == ("::1", 4573)
        assert parse_address("[fe80::2]:80") == ("fe80::2", 80)
        assert format_address(("::1", 4573)) == "[::1]:4573"
        assert parse_address(format_address(("::1", 9999))) == ("::1", 9999)

    def test_bare_ipv6_literal_gets_default_port(self):
        from repro.runtime.distributed.protocol import DEFAULT_PORT

        assert parse_address("::1") == ("::1", DEFAULT_PORT)
        assert parse_address("[::1]") == ("::1", DEFAULT_PORT)
        assert parse_address("fe80::aa:2") == ("fe80::aa:2", DEFAULT_PORT)

    @pytest.mark.parametrize("bogus", ["[::1", "[]:4573", "[::1]4573", "[::1]:"])
    def test_malformed_ipv6_addresses_rejected(self, bogus):
        with pytest.raises(ProtocolError):
            parse_address(bogus)


class TestFraming:
    def test_encode_read_round_trip(self):
        message = {"op": "lease", "worker": "w0", "nested": {"a": [1, 2]}}
        stream = io.BytesIO(encode_message(message) + encode_message({"op": "x"}))
        assert read_message(stream) == message
        assert read_message(stream) == {"op": "x"}
        assert read_message(stream) is None  # EOF

    def test_messages_are_single_lines(self):
        assert encode_message({"a": 1}).count(b"\n") == 1

    def test_garbage_line_raises(self):
        with pytest.raises(ProtocolError):
            read_message(io.BytesIO(b"not json\n"))

    def test_non_object_message_raises(self):
        with pytest.raises(ProtocolError):
            read_message(io.BytesIO(b"[1,2,3]\n"))

    def test_oversized_frame_rejected_instead_of_buffered(self):
        # Regression: readline() had no bound, so one hostile line could
        # balloon broker memory without limit.
        hostile = b'{"op": "' + b"A" * 4096 + b'"}\n'
        with pytest.raises(ProtocolError, match="frame exceeds"):
            read_message(io.BytesIO(hostile), max_bytes=1024)
        # A frame of exactly max_bytes (newline included) still parses.
        exact = encode_message({"pad": "x" * 100})
        assert read_message(io.BytesIO(exact), max_bytes=len(exact)) == {
            "pad": "x" * 100
        }

    def test_oversized_frame_without_newline_rejected(self):
        with pytest.raises(ProtocolError, match="frame exceeds"):
            read_message(io.BytesIO(b"A" * 2048), max_bytes=1024)


class TestPayloadCodec:
    @pytest.mark.parametrize(
        "blob",
        [
            "!!! not base64 !!!",
            base64.b64encode(b"plain bytes, not gzip").decode(),
            base64.b64encode(gzip.compress(b"{torn json")).decode(),
            base64.b64encode(gzip.compress(b"[1, 2, 3]")).decode(),
        ],
        ids=["not-base64", "not-gzip", "not-json", "not-an-object"],
    )
    def test_garbage_blobs_raise_protocol_errors(self, blob):
        with pytest.raises(ProtocolError):
            decompress_payload(blob)

    def test_encoding_is_deterministic_and_key_order_free(self):
        # fetch_chunk slices a fresh recompression on every call, so equal
        # payloads must always encode to the same bytes.
        first = compress_payload({"a": 1, "b": {"y": [1, 2], "x": None}})
        second = compress_payload({"b": {"x": None, "y": [1, 2]}, "a": 1})
        assert first == second
        assert gzip.decompress(base64.b64decode(first)) == (
            b'{"a":1,"b":{"x":null,"y":[1,2]}}'
        )


class TestRequest:
    def test_status_round_trip_against_live_server(self):
        with BrokerServer(Broker()) as server:
            response = request(server.address, {"op": "status"})
        assert response["ok"] is True
        assert response["protocol"] == PROTOCOL == "dalorex-dist/3"
        assert response["pending"] == 0

    def test_unknown_op_is_a_protocol_error(self):
        with BrokerServer(Broker()) as server:
            with pytest.raises(ProtocolError, match="unknown op"):
                request(server.address, {"op": "frobnicate"})

    def test_unreachable_broker_raises_oserror(self):
        with BrokerServer(Broker()) as server:
            address = server.address
        # Server stopped: the port is closed again.
        with pytest.raises(OSError):
            request(address, {"op": "status"}, timeout=2.0)

    def test_live_server_rejects_oversized_frames_with_typed_code(self):
        import socket

        from repro.runtime.distributed.protocol import (
            ERR_FRAME_TOO_LARGE,
            read_message,
        )

        server = BrokerServer(Broker(), max_message_bytes=2048)
        with server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(b'{"op": "' + b"A" * 8192 + b'"}\n')
                with sock.makefile("rb") as rfile:
                    response = read_message(rfile)
            assert response["ok"] is False
            assert response["code"] == ERR_FRAME_TOO_LARGE
            # The broker survives the hostile peer and keeps serving.
            assert request(server.address, {"op": "status"})["ok"] is True

    def test_live_server_drops_garbage_lines_quietly(self):
        import socket

        with BrokerServer(Broker()) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(b"complete garbage, not json\n")
                with sock.makefile("rb") as rfile:
                    assert rfile.readline() == b""  # connection dropped
            assert request(server.address, {"op": "status"})["ok"] is True


    def test_one_connection_carries_several_requests_in_order(self):
        broker = Broker()
        lines = (
            encode_message({"op": "submit", "protocol": PROTOCOL,
                            "specs": [make_spec().canonical()]})
            + encode_message({"op": "status", "protocol": PROTOCOL})
        )
        with BrokerServer(broker) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(lines)
                with sock.makefile("rb") as rfile:
                    submitted = read_message(rfile)
                    status = read_message(rfile)
        assert (submitted["ok"], submitted["queued"]) == (True, 1)
        assert (status["ok"], status["pending"]) == (True, 1)

    def test_a_peer_that_closes_without_answering_is_a_protocol_error(self):
        class Hangup(socketserver.StreamRequestHandler):
            def handle(self):
                self.rfile.readline()  # read the request, answer nothing

        stub = socketserver.TCPServer(("127.0.0.1", 0), Hangup)
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="closed the connection") as excinfo:
                request(stub.server_address, {"op": "lease"}, timeout=5.0)
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5.0)
        assert not isinstance(excinfo.value, BrokerError)


def _raw_exchange(address, message):
    """Send ``message`` exactly as given (no protocol stamp added)."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(encode_message(message))
        with sock.makefile("rb") as rfile:
            return read_message(rfile)


class _StubHandler(socketserver.StreamRequestHandler):
    def handle(self):
        self.rfile.readline()
        self.wfile.write(encode_message(self.server.answer))


class TestOneProtocolGeneration:
    """``dalorex-dist/3`` is the only generation either side accepts."""

    @pytest.mark.parametrize(
        "stamp", ["dalorex-dist/1", "dalorex-dist/2", "dalorex-dist/4", None]
    )
    def test_broker_refuses_other_generations_with_a_typed_code(self, stamp):
        broker = Broker()
        message = {"op": "shutdown"}
        if stamp is not None:
            message["protocol"] = stamp
        with BrokerServer(broker) as server:
            response = _raw_exchange(server.address, message)
            assert response["ok"] is False
            assert response["code"] == ERR_UNSUPPORTED_PROTOCOL
            assert response["protocol"] == PROTOCOL
            # Refused means not executed: the broker is still serving.
            assert not broker.is_shutdown
            assert request(server.address, {"op": "status"})["ok"] is True
        assert broker.status()["codes"][ERR_UNSUPPORTED_PROTOCOL] == 1

    @pytest.mark.parametrize("stamp", ["dalorex-dist/1", "dalorex-dist/2", None])
    def test_request_rejects_responses_of_other_generations(self, stamp):
        answer = {"ok": True, "pending": 0}
        if stamp is not None:
            answer["protocol"] = stamp
        stub = socketserver.TCPServer(("127.0.0.1", 0), _StubHandler)
        stub.answer = answer
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="protocol mismatch") as excinfo:
                request(stub.server_address, {"op": "status"}, timeout=5.0)
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5.0)
        # A transport-level failure, not a broker's semantic rejection.
        assert not isinstance(excinfo.value, BrokerError)

    @pytest.mark.parametrize(
        "op",
        ["submit", "lease", "heartbeat", "release", "result", "fetch",
         "fetch_chunk", "shutdown"],
    )
    def test_refused_request_is_not_dispatched(self, op, real_payload):
        # Each message would change the broker if it were dispatched: queue
        # a spec, lease or renew or release one, land a valid upload, or
        # count a never-submitted/unknown-key code.
        key, payload = real_payload
        clock = _FakeClock()
        broker = Broker(lease_timeout=10.0, clock=clock)
        broker.submit([make_spec().canonical()])
        assert broker.lease("w0")["key"] == key
        broker.submit([make_spec(seed=11).canonical()])
        clock.advance(5.0)  # a renewed lease would get a later deadline
        message = {
            "submit": {"specs": [make_spec(seed=12).canonical()]},
            "lease": {"worker": "w1"},
            "heartbeat": {"worker": "w0", "key": key},
            "release": {"worker": "w0", "key": key, "error": "executor raised"},
            "result": {"worker": "w0", "key": key,
                       "sha256": payload_digest(payload),
                       "payload_gz": compress_payload(payload)},
            "fetch": {"keys": [key, "f" * 64]},
            "fetch_chunk": {"key": "f" * 64},
            "shutdown": {},
        }[op]
        before = _dispatch_state(broker)
        with BrokerServer(broker) as server:
            response = _raw_exchange(
                server.address, dict(message, op=op, protocol="dalorex-dist/2")
            )
            after = _dispatch_state(broker)
        # The refusal carries no body of the op it refused.
        assert set(response) == {"ok", "error", "code", "protocol"}
        assert response["code"] == ERR_UNSUPPORTED_PROTOCOL
        assert "'dalorex-dist/2'" in response["error"]
        assert after == before


class _FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _dispatch_state(broker):
    """Everything a dispatched op could move, less the refusal's own tally."""
    stats = broker.status()
    stats["codes"].pop(ERR_UNSUPPORTED_PROTOCOL, None)
    del stats["uptime_seconds"]
    with broker._lock:
        deadlines = {key: task.deadline for key, task in broker._tasks.items()}
    return stats, deadlines, broker.is_shutdown


class TestGangTrafficFromOlderWorkers:
    """A ``dalorex worker --gang`` built before the gang transport was
    deleted still speaks ``dalorex-dist/3``: its lease flag is ignored and
    its mailbox ops are unknown."""

    def test_gang_lease_flag_gets_the_whole_spec(self):
        broker = Broker()
        spec = make_spec()
        broker.submit([spec.canonical()])
        with BrokerServer(broker) as server:
            lease = request(
                server.address, {"op": "lease", "worker": "w-old", "gang": True}
            )
        assert lease["key"] == spec.key()
        assert lease["spec"] == spec.canonical()
        assert "gang" not in lease
        assert broker.status()["leased"] == 1

    @pytest.mark.parametrize("op", ["gang_put", "gang_take"])
    def test_gang_mailbox_ops_are_unknown(self, op):
        broker = Broker()
        message = {"op": op, "gang": "g1", "shard": 1, "box": "in"}
        with BrokerServer(broker) as server:
            with pytest.raises(BrokerError, match="unknown op") as excinfo:
                request(server.address, message)
        assert excinfo.value.code == ERR_UNKNOWN_OP
        assert broker.status()["codes"][ERR_UNKNOWN_OP] == 1


class TestDeletedFieldsFromOlderPeers:
    """A client or worker built while the broker still served tenants,
    trace propagation and fleet metrics speaks ``dalorex-dist/3`` too: the
    fields those features added are ignored, and their ops are unknown."""

    def test_submit_with_tenant_and_traces_queues_and_completes(
        self, real_payload
    ):
        key, payload = real_payload
        broker = Broker()
        trace = {"trace": "t" * 16, "parent": "client-span-1"}
        with BrokerServer(broker) as server:
            submitted = request(
                server.address,
                {"op": "submit", "specs": [make_spec().canonical()],
                 "tenant": "alice", "traces": {key: trace}},
            )
            assert (submitted["queued"], submitted["duplicates"]) == (1, 0)
            lease = request(server.address, {"op": "lease", "worker": "w-old"})
            assert lease["key"] == key
            assert "trace" not in lease
            accepted = request(
                server.address,
                {"op": "result", "worker": "w-old", "key": key,
                 "sha256": payload_digest(payload),
                 "payload_gz": compress_payload(payload), "trace": trace},
            )
            assert accepted["accepted"] and not accepted["duplicate"]
            fetched = request(server.address, {"op": "fetch", "keys": [key]})
        assert decompress_payload(fetched["results_gz"][key]) == payload
        assert broker.status()["codes"] == {}

    def test_worker_reports_are_served_normally(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        report = {"seq": 1, "counters": {"worker.leases": {"": 1}},
                  "gauges": {}, "histograms": {}}
        with BrokerServer(broker) as server:
            lease = request(
                server.address,
                {"op": "lease", "worker": "w-old",
                 "stats": {"completed": 3, "capacity": 2}},
            )
            assert lease["key"] == key
            beat = request(
                server.address,
                {"op": "heartbeat", "worker": "w-old", "key": key,
                 "telemetry": report},
            )
            assert beat["active"] is True
            accepted = request(
                server.address,
                {"op": "result", "worker": "w-old", "key": key,
                 "sha256": payload_digest(payload),
                 "payload_gz": compress_payload(payload),
                 "trace": {"trace": "t" * 16}, "telemetry": report},
            )
        assert accepted["accepted"] is True
        status = broker.status()
        assert status["completed"] == 1
        assert status["per_worker"]["w-old"] == {
            "leases": 1, "completed": 1, "rejected": 0, "released": 0,
        }
        assert status["codes"] == {}

    @pytest.mark.parametrize("op", ["stats", "metrics"])
    def test_fleet_introspection_ops_are_unknown(self, op):
        broker = Broker()
        with BrokerServer(broker) as server:
            with pytest.raises(BrokerError, match="unknown op") as excinfo:
                request(server.address, {"op": op})
        assert excinfo.value.code == ERR_UNKNOWN_OP
        assert broker.status()["codes"] == {ERR_UNKNOWN_OP: 1}


class TestSpecsFromOlderClients:
    """A client built before partitioned execution was removed may still
    submit a partition count; the broker refuses it instead of running it
    under a key that client never waits for."""

    def test_a_partition_count_is_a_bad_request_and_queues_nothing(self):
        broker = Broker()
        batch = [make_spec(app="sssp").canonical(),
                 dict(make_spec().canonical(), shards=2)]
        with pytest.raises(ValueError, match="shards"):
            broker.submit(batch)
        with BrokerServer(broker) as server:
            with pytest.raises(BrokerError, match="shards") as excinfo:
                request(server.address, {"op": "submit", "specs": batch})
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert broker.status()["codes"][ERR_BAD_REQUEST] == 1
        status = broker.status()
        assert (status["pending"], status["leased"]) == (0, 0)
        assert broker.lease("w0")["key"] is None

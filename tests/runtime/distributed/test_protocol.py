"""Framing, addressing and request/response semantics of the wire protocol."""

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
        assert broker.fleet_stats()["codes"][ERR_UNSUPPORTED_PROTOCOL] == 1

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
            "lease": {"worker": "w1", "stats": {"completed": 3}},
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
    stats = broker.fleet_stats()
    stats["codes"].pop(ERR_UNSUPPORTED_PROTOCOL, None)
    for volatile in ("uptime_seconds", "started_unix", "signals", "series"):
        del stats[volatile]
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
        assert broker.fleet_stats()["codes"][ERR_UNKNOWN_OP] == 1


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
        assert broker.fleet_stats()["codes"][ERR_BAD_REQUEST] == 1
        status = broker.status()
        assert (status["pending"], status["leased"]) == (0, 0)
        assert broker.lease("w0")["key"] is None

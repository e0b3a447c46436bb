"""The ``status`` op: queue counts, structured-code totals and the
per-worker ledger -- the broker's one introspection surface."""

import json
import socket

import pytest

from repro.runtime import ResultCache, payload_digest
from repro.runtime.distributed import Broker, BrokerError, BrokerServer, request
from repro.runtime.distributed.protocol import (
    ERR_BAD_REQUEST,
    ERR_FRAME_TOO_LARGE,
    ERR_UNKNOWN_KEY,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_PROTOCOL,
    FAIL_GAVE_UP,
    FAIL_NEVER_SUBMITTED,
    REJECT_BAD_PAYLOAD,
    REJECT_DIGEST_MISMATCH,
    REJECT_INGEST,
    REJECT_TRANSPORT,
    REJECT_UNKNOWN_KEY,
    encode_message,
    read_message,
)

from distributed_helpers import make_spec


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


EMPTY_LEDGER = {"leases": 0, "completed": 0, "rejected": 0, "released": 0}


class TestStatusShape:
    def test_status_reports_uptime(self):
        clock = FakeClock()
        broker = Broker(clock=clock)
        assert broker.status()["uptime_seconds"] == 0.0
        clock.advance(42.5)
        assert broker.status()["uptime_seconds"] == 42.5

    def test_status_is_the_whole_introspection_surface(self):
        status = Broker().status()
        assert set(status) == {
            "pending", "leased", "completed", "failed", "shutdown",
            "uptime_seconds", "stats", "codes", "per_worker",
        }
        assert status["stats"] == {
            "submitted": 0, "duplicates": 0, "leases": 0, "completed": 0,
            "rejected": 0, "requeues": 0, "expired_leases": 0,
        }
        assert (status["codes"], status["per_worker"]) == ({}, {})
        json.dumps(status)  # travels on the wire as-is

    def test_status_over_the_wire_matches_the_broker(self):
        broker = Broker()
        broker.submit([make_spec(seed=1).canonical(), make_spec(seed=2).canonical()])
        broker.lease("w0")
        broker.fetch(["f" * 64])
        with BrokerServer(broker) as server:
            response = request(server.address, {"op": "status"})
        local = broker.status()
        for status in (response, local):
            del status["uptime_seconds"]
        assert response.pop("ok") is True
        response.pop("protocol")
        assert response == local
        assert (local["pending"], local["leased"]) == (1, 1)

    def test_status_sweeps_expired_leases(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, clock=clock)
        broker.submit([make_spec().canonical()])
        broker.lease("w0")
        clock.advance(5.5)
        status = broker.status()
        assert (status["pending"], status["leased"]) == (1, 0)
        assert status["stats"]["expired_leases"] == 1
        assert status["stats"]["requeues"] == 1
        assert status["per_worker"]["w0"] == dict(EMPTY_LEDGER, leases=1)

    def test_in_flight_work_still_completes_after_shutdown(self, real_payload):
        # Shutdown stops new leases only: a worker mid-simulation keeps
        # its lease alive and its upload is still verified and accepted.
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical(), make_spec(seed=8).canonical()])
        assert broker.lease("w0")["key"] == key
        broker.shutdown()
        assert broker.status()["shutdown"] is True
        assert broker.lease("w1") == {"key": None, "shutdown": True}
        assert broker.heartbeat("w0", key) == {"active": True}
        accepted = broker.ingest("w0", key, payload_digest(payload), payload)
        assert accepted == {"accepted": True, "duplicate": False}
        status = broker.status()
        assert (status["completed"], status["pending"], status["leased"]) == (1, 1, 0)


# ------------------------------------------------------------- code totals
def _digest_mismatch(broker, payload):
    broker.submit([make_spec().canonical()])
    lease = broker.lease("w0")
    return broker.ingest("w0", lease["key"], "0" * 64, payload)


def _missing_payload(broker, payload):
    broker.submit([make_spec().canonical()])
    lease = broker.lease("w0")
    return broker.ingest("w0", lease["key"], payload_digest(payload), None)


def _corrupt_transport(broker, payload):
    broker.submit([make_spec().canonical()])
    lease = broker.lease("w0")
    return broker.ingest(
        "w0", lease["key"], payload_digest(payload), None,
        transport_error="cannot decompress gzip payload: not a gzip file",
    )


def _wrong_workload(broker, payload):
    # Digest-valid, but the payload of a bfs run uploaded for an spmv spec.
    broker.submit([make_spec(app="spmv", width=4).canonical()])
    lease = broker.lease("w0")
    return broker.ingest("w0", lease["key"], payload_digest(payload), payload)


class TestRejectionCodes:
    @pytest.mark.parametrize(
        "upload, code",
        [
            (_digest_mismatch, REJECT_DIGEST_MISMATCH),
            (_missing_payload, REJECT_BAD_PAYLOAD),
            (_corrupt_transport, REJECT_TRANSPORT),
            (_wrong_workload, REJECT_INGEST),
        ],
        ids=["digest-mismatch", "bad-payload", "transport-error", "ingest-violation"],
    )
    def test_each_rejection_is_counted_ledgered_and_requeued(
        self, upload, code, real_payload
    ):
        _key, payload = real_payload
        broker = Broker()
        response = upload(broker, payload)
        assert (response["accepted"], response["code"]) == (False, code)
        status = broker.status()
        assert status["codes"] == {code: 1}
        assert status["per_worker"]["w0"] == dict(EMPTY_LEDGER, leases=1, rejected=1)
        assert (status["pending"], status["leased"]) == (1, 0)
        assert status["stats"]["rejected"] == status["stats"]["requeues"] == 1

    def test_upload_of_a_never_queued_key_is_counted_and_ledgered(self, real_payload):
        # Nothing was queued, so nothing requeues; the rejection still
        # counts like every other one.
        key, payload = real_payload
        broker = Broker()
        response = broker.ingest("w0", key, payload_digest(payload), payload)
        assert (response["accepted"], response["code"]) == (False, REJECT_UNKNOWN_KEY)
        status = broker.status()
        assert status["codes"] == {REJECT_UNKNOWN_KEY: 1}
        assert status["per_worker"]["w0"] == dict(EMPTY_LEDGER, rejected=1)
        assert (status["pending"], status["leased"]) == (0, 0)
        assert status["stats"]["rejected"] == 1
        assert status["stats"]["requeues"] == 0


class TestFailureCodeTotals:
    @pytest.mark.parametrize("with_cache", [False, True], ids=["memory", "cache"])
    def test_never_submitted_counts_once_per_key_per_fetch(self, with_cache, tmp_path):
        # Without a cache the key fails under the lock; with one it fails
        # only after the cache lookup misses.  Both paths count.
        cache = ResultCache(tmp_path / "cache") if with_cache else None
        broker = Broker(cache=cache)
        first = broker.fetch(["a" * 64, "b" * 64])
        assert first["failed_codes"] == {
            "a" * 64: FAIL_NEVER_SUBMITTED, "b" * 64: FAIL_NEVER_SUBMITTED,
        }
        broker.fetch(["a" * 64])
        assert broker.status()["codes"] == {FAIL_NEVER_SUBMITTED: 3}

    def test_release_give_up_counts_once(self):
        broker = Broker(max_attempts=1)
        spec = make_spec()
        broker.submit([spec.canonical()])
        broker.lease("w0")
        assert broker.release("w0", spec.key(), "executor raised") == {"requeued": False}
        for _ in range(2):
            fetched = broker.fetch([spec.key()])
            assert fetched["failed_codes"] == {spec.key(): FAIL_GAVE_UP}
        status = broker.status()
        assert status["codes"] == {FAIL_GAVE_UP: 1}
        assert status["failed"] == 1
        assert status["per_worker"]["w0"] == dict(EMPTY_LEDGER, leases=1, released=1)

    def test_expiry_give_up_counts_once(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=1, clock=clock)
        spec = make_spec()
        broker.submit([spec.canonical()])
        broker.lease("w0")
        clock.advance(6.0)
        broker.status()
        broker.fetch([spec.key()])
        status = broker.status()
        assert status["codes"] == {FAIL_GAVE_UP: 1}
        assert status["stats"]["expired_leases"] == 1
        assert status["stats"]["requeues"] == 0  # the cap, not a requeue
        assert "stopped heartbeating" in broker.fetch([spec.key()])["failed"][spec.key()]

    def test_totals_are_history_not_state(self):
        # A resubmitted give-up queues afresh; its earlier give-up still
        # counts, and a second give-up adds to it.
        broker = Broker(max_attempts=1)
        spec = make_spec()
        for expected in (1, 2):
            assert broker.submit([spec.canonical()])["queued"] == 1
            broker.lease("w0")
            broker.release("w0", spec.key())
            assert broker.status()["codes"] == {FAIL_GAVE_UP: expected}


def _raw_exchange(address, line):
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(line)
        with sock.makefile("rb") as rfile:
            return read_message(rfile)


class TestServerCodeTotals:
    @pytest.mark.parametrize(
        "message, code",
        [
            ({"op": "frobnicate"}, ERR_UNKNOWN_OP),
            ({"op": "submit", "specs": [{"bogus": 1}]}, ERR_BAD_REQUEST),
            ({"op": "fetch_chunk", "key": "no-such-key", "offset": 0}, ERR_UNKNOWN_KEY),
            ({"op": "fetch_chunk", "key": "k", "offset": "start"}, ERR_BAD_REQUEST),
        ],
        ids=["unknown-op", "bad-spec", "unknown-chunk-key", "bad-offset"],
    )
    def test_refused_requests_are_counted_and_typed(self, message, code):
        broker = Broker()
        with BrokerServer(broker) as server:
            with pytest.raises(BrokerError) as excinfo:
                request(server.address, message)
            assert excinfo.value.code == code
            status = request(server.address, {"op": "status"})
        assert status["codes"] == {code: 1}

    def test_unstamped_request_is_counted(self):
        broker = Broker()
        with BrokerServer(broker) as server:
            response = _raw_exchange(server.address, encode_message({"op": "status"}))
        assert response["code"] == ERR_UNSUPPORTED_PROTOCOL
        assert broker.status()["codes"] == {ERR_UNSUPPORTED_PROTOCOL: 1}

    def test_oversized_frame_is_counted(self):
        broker = Broker()
        with BrokerServer(broker, max_message_bytes=2048) as server:
            response = _raw_exchange(server.address, b'{"op": "' + b"A" * 4096 + b'"}\n')
        assert response["code"] == ERR_FRAME_TOO_LARGE
        assert broker.status()["codes"] == {ERR_FRAME_TOO_LARGE: 1}


class TestWorkerLedgerOutcomes:
    def test_one_worker_ledgers_every_outcome(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        assert broker.lease("w0")["key"] == key
        broker.ingest("w0", key, payload_digest(payload), payload)
        other = make_spec(seed=9)
        broker.submit([other.canonical()])
        broker.lease("w0")
        broker.ingest("w0", other.key(), "0" * 64, payload)  # rejected, requeued
        assert broker.lease("w0")["attempt"] == 2
        broker.release("w0", other.key())
        assert broker.status()["per_worker"] == {
            "w0": {"leases": 3, "completed": 1, "rejected": 1, "released": 1},
        }

    def test_calls_from_a_non_holder_are_not_ledgered(self):
        broker = Broker()
        spec = make_spec(seed=9)
        broker.submit([spec.canonical()])
        broker.lease("w0")
        assert broker.release("w1", spec.key()) == {"requeued": False}
        assert broker.heartbeat("w1", spec.key()) == {"active": False}
        status = broker.status()
        assert set(status["per_worker"]) == {"w0"}
        assert (status["pending"], status["leased"]) == (0, 1)
        assert status["stats"]["requeues"] == 0

"""One worker's lease/execute/upload loop, its counters and its spans."""

import io
import json
import os
import socket
import threading
import time

from repro.runtime import payload_digest
from repro.runtime.distributed import Broker, BrokerServer, Worker
from repro.runtime.distributed.protocol import decompress_payload
from repro.telemetry import JsonlSink, Telemetry, telemetry_session

from distributed_helpers import make_spec

KEY = "k" * 64


def offline_worker(**kwargs):
    """A worker whose broker is a stub installed on ``_send_quietly``."""
    kwargs.setdefault("executor", lambda canonical: dict(canonical))
    return Worker(("127.0.0.1", 1), worker_id="w0", **kwargs)


def closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRunOne:
    def test_stats_method_counts_leases_uploads_and_leaks(self):
        worker = offline_worker()
        worker._send_quietly = lambda message: {"accepted": True}
        assert worker._run_one(KEY, {"x": 1}, lease_timeout=60.0) is True
        assert worker.stats() == {
            "completed": 1, "rejected": 0, "errors": 0,
            "leases": 0, "uploads": 1, "leaked_heartbeats": 0,
        }

    def test_upload_digests_the_decompressed_payload(self):
        worker = offline_worker(executor=lambda canonical: {"cycles": 3.5})
        sent = []
        worker._send_quietly = lambda message: sent.append(message) or {"accepted": True}
        worker._run_one(KEY, {"x": 1}, lease_timeout=60.0)
        (upload,) = sent
        assert (upload["op"], upload["worker"], upload["key"]) == ("result", "w0", KEY)
        assert decompress_payload(upload["payload_gz"]) == {"cycles": 3.5}
        assert upload["sha256"] == payload_digest({"cycles": 3.5})

    def test_executor_failure_releases_the_spec_with_its_reason(self):
        def explode(canonical):
            raise RuntimeError("boom")

        lines, sent = [], []
        worker = offline_worker(executor=explode, log=lines.append)
        worker._send_quietly = lambda message: sent.append(message) or {"requeued": True}
        assert worker._run_one(KEY, {"x": 1}, lease_timeout=60.0) is False
        assert sent == [{"op": "release", "worker": "w0", "key": KEY,
                         "error": "worker executor raised: boom"}]
        assert (worker.errors, worker.uploads, worker.completed) == (1, 0, 0)
        assert lines == [f"[w0] {KEY[:12]} failed: boom"]

    def test_rejected_upload_is_counted_and_logged_with_its_code(self):
        lines = []
        worker = offline_worker(log=lines.append)
        worker._send_quietly = lambda message: {
            "accepted": False, "code": "digest-mismatch", "reason": "claimed abc",
        }
        assert worker._run_one(KEY, {"x": 1}, lease_timeout=60.0) is False
        assert (worker.rejected, worker.completed, worker.uploads) == (1, 0, 1)
        assert lines == [
            f"[w0] upload rejected for {KEY[:12]} [digest-mismatch]: claimed abc"
        ]

    def test_lost_upload_is_an_error_left_to_lease_expiry(self):
        worker = offline_worker()
        worker._send_quietly = lambda message: None  # broker unreachable
        assert worker._run_one(KEY, {"x": 1}, lease_timeout=60.0) is False
        assert (worker.errors, worker.uploads, worker.rejected) == (1, 1, 0)

    def test_heartbeat_stops_once_the_lease_is_lost(self):
        worker = offline_worker()
        beats = []
        worker._send_quietly = lambda message: beats.append(message) or {"active": False}
        never = threading.Event()
        beat = threading.Thread(
            target=worker._heartbeat_loop, args=(KEY, 0.15, never), daemon=True
        )
        beat.start()
        beat.join(timeout=5.0)
        assert not beat.is_alive()
        assert beats == [{"op": "heartbeat", "worker": "w0", "key": KEY}]


class TestLoop:
    def test_defaults_name_host_and_pid_and_floor_the_poll(self):
        worker = Worker(("127.0.0.1", 1), poll_interval=0)
        assert worker.worker_id == f"{socket.gethostname()}-{os.getpid()}"
        assert worker.poll_interval == 0.01

    def test_stopped_worker_leases_nothing(self):
        worker = offline_worker()
        worker.stop()
        assert worker.run() == 0
        assert worker.stats()["leases"] == 0

    def test_unreachable_broker_exhausts_patience_and_exits(self):
        lines = []
        worker = Worker(("127.0.0.1", closed_port()), worker_id="w0",
                        poll_interval=0.02, connect_patience=0.2,
                        log=lines.append)
        started = time.monotonic()
        assert worker.run() == 0
        assert time.monotonic() - started < 5.0
        assert len(lines) == 1 and lines[0].startswith("[w0] giving up on broker")

    def test_max_runs_leaves_the_rest_of_the_queue(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical(), make_spec(seed=8).canonical()])
        with BrokerServer(broker) as server:
            worker = Worker(server.address, worker_id="w0", poll_interval=0.02,
                            max_runs=1, executor=lambda canonical: payload)
            assert worker.run() == 1
        status = broker.status()
        assert (status["completed"], status["pending"], status["leased"]) == (1, 1, 0)
        assert status["per_worker"]["w0"]["leases"] == 1
        assert broker.fetch([key])["results"][key] == payload


class TestSpans:
    def test_execute_and_upload_spans_carry_the_spec_and_worker(self):
        stream = io.StringIO()
        with telemetry_session(Telemetry(sink=JsonlSink(stream=stream))):
            worker = offline_worker()
            worker._send_quietly = lambda message: {"accepted": True}
            worker._run_one(KEY, {"x": 1}, lease_timeout=60.0)
            spans = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [span["name"] for span in spans] == ["worker.execute", "worker.upload"]
        for span in spans:
            assert span["kind"] == "span"
            assert span["ctx"] == {"spec": KEY[:12], "worker": "w0"}
            assert "trace" not in span

    def test_broker_emits_lease_events_and_an_ingest_span(self, real_payload):
        key, payload = real_payload
        stream = io.StringIO()
        with telemetry_session(Telemetry(sink=JsonlSink(stream=stream))):
            broker = Broker()
            broker.submit([make_spec().canonical()])
            broker.lease("w0")
            broker.ingest("w0", key, payload_digest(payload), payload)
            records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(r["kind"], r["name"]) for r in records] == [
            ("event", "lease.granted"),
            ("span", "broker.ingest"),
            ("event", "lease.completed"),
        ]
        granted, ingest, completed = records
        assert (granted["key"], granted["worker"], granted["attempt"]) == (key[:12], "w0", 1)
        assert ingest["ctx"] == {"spec": key[:12], "worker": "w0"}
        assert (completed["key"], completed["worker"]) == (key[:12], "w0")

    def test_a_served_run_writes_lease_execute_and_upload_spans(self, real_payload, memory_trace):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        with BrokerServer(broker) as server:
            worker = Worker(server.address, worker_id="w0", poll_interval=0.02,
                            max_runs=1, executor=lambda canonical: payload)
            assert worker.run() == 1
        leases = memory_trace.records("worker.lease")
        assert len(leases) == worker.stats()["leases"] == 1
        assert "ctx" not in leases[0]  # a lease precedes knowing the spec
        for name in ("worker.execute", "worker.upload"):
            (span,) = memory_trace.records(name)
            assert span["ctx"] == {"spec": key[:12], "worker": "w0"}

    def test_a_failing_executor_still_writes_its_execute_span(self, memory_trace):
        def explode(canonical):
            raise RuntimeError("boom")

        worker = offline_worker(executor=explode, log=lambda line: None)
        worker._send_quietly = lambda message: {"requeued": True}
        assert worker._run_one(KEY, {"x": 1}, lease_timeout=60.0) is False
        assert [r["name"] for r in memory_trace.records()] == ["worker.execute"]

    def test_a_rejected_upload_writes_an_ingest_span_and_no_completion(
        self, real_payload, memory_trace
    ):
        key, payload = real_payload
        broker = Broker()
        broker.submit([make_spec().canonical()])
        broker.lease("w0")
        assert broker.ingest("w0", key, "0" * 64, payload)["accepted"] is False
        assert [(r["kind"], r["name"]) for r in memory_trace.records()] == [
            ("event", "lease.granted"),
            ("span", "broker.ingest"),
        ]

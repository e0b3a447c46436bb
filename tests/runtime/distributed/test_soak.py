"""Concurrency soak: ~100 interleaved clients against a 2-worker fleet.

The always-on broker must serve heavy interactive traffic: one hundred
client threads (a third of them forcing the chunked-fetch path with tiny
frame budgets) submit overlapping batches and
poll for results while hostile peers spray garbage lines, oversized frames
and malformed ops at the same endpoint.  Every client must end up with
payloads byte-identical to serial execution, and the broker must stay
coherent (work executed once per spec, no lost or duplicated results).

Marked ``slow``: deselect with ``-m "not slow"`` for a quick loop.
"""

import json
import socket
import threading

import pytest

from repro.runtime.backends import execute_to_payload
from repro.runtime.distributed import Broker, DistributedBackend

from distributed_helpers import fleet, make_specs

NUM_CLIENTS = 100
NUM_HOSTILE = 6
FRAME_CAP = 256 * 1024  # server-side frame cap the hostile peers attack


def canonical_bytes(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.slow
def test_hundred_concurrent_clients_against_a_two_worker_fleet():
    specs = make_specs()
    expected = {spec.key(): execute_to_payload(spec)[1] for spec in specs}
    broker = Broker()
    failures = []
    failures_lock = threading.Lock()

    def client(index, address):
        try:
            # Overlapping batches: every client wants a rotating subset, so
            # submits race and dedup constantly.
            mine = [specs[(index + offset) % len(specs)] for offset in range(3)]
            backend = DistributedBackend(
                address,
                poll_interval=0.05,
                timeout=120.0,
                # A third of the clients force every payload through the
                # chunked stream; the rest fetch inline.
                max_frame_bytes=4096 if index % 3 == 0 else 2**20,
            )
            fetched = dict(backend.execute(mine))
            for spec in mine:
                got = fetched.get(spec.key())
                if got is None or canonical_bytes(got) != canonical_bytes(
                    expected[spec.key()]
                ):
                    raise AssertionError(
                        f"client {index}: wrong payload for {spec.key()[:12]}"
                    )
        except Exception as exc:  # collected, not raised across threads
            with failures_lock:
                failures.append(f"client {index}: {exc!r}")

    def hostile(index, address):
        try:
            for round_ in range(5):
                with socket.create_connection(address, timeout=10) as sock:
                    if index % 3 == 0:
                        sock.sendall(b"garbage that is not json at all\n")
                    elif index % 3 == 1:
                        # Twice the server's frame cap: must be answered
                        # with the typed frame-too-large error, not
                        # buffered.
                        sock.sendall(b'{"op": "' + b"A" * (2 * FRAME_CAP) + b'"}\n')
                    else:
                        sock.sendall(
                            b'{"op": "fetch_chunk", "key": "nope", "offset": -5}\n'
                        )
                    # Read whatever comes back (typed error or a dropped
                    # connection); either way the broker must survive.
                    sock.settimeout(10)
                    try:
                        sock.recv(4096)
                    except OSError:
                        pass
        except Exception as exc:
            with failures_lock:
                failures.append(f"hostile {index}: {exc!r}")

    with fleet(
        broker,
        num_workers=2,
        server_kwargs={"max_message_bytes": FRAME_CAP},
    ) as (server, _workers):
        threads = [
            threading.Thread(target=client, args=(i, server.address), daemon=True)
            for i in range(NUM_CLIENTS)
        ] + [
            threading.Thread(target=hostile, args=(i, server.address), daemon=True)
            for i in range(NUM_HOSTILE)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        stuck = [t for t in threads if t.is_alive()]
        assert not stuck, f"{len(stuck)} soak threads never finished"
        status = broker.status()

    assert failures == []
    # Every distinct spec executed; duplicates were deduplicated, not rerun.
    assert status["completed"] == len(specs)
    assert status["failed"] == 0
    assert status["pending"] == 0
    assert broker.stats.completed == len(specs)
    # The dedup actually happened under contention: far more submits arrived
    # than specs exist.
    assert broker.stats.duplicates > len(specs)

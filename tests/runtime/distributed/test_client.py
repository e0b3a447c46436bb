"""DistributedBackend against a scripted transport: submit chunking, fetch
budgets, resubmission, chunk-stream retries and the patience budget."""

import pytest

from repro.errors import SimulationError
from repro.runtime.distributed import BrokerError, DistributedBackend
from repro.runtime.distributed import client as client_module
from repro.runtime.distributed.protocol import (
    ERR_BAD_REQUEST,
    FAIL_NEVER_SUBMITTED,
    MAX_FRAME_BYTES,
    compress_payload,
)

from distributed_helpers import make_spec

ADDRESS = ("127.0.0.1", 4573)


class FakeTime:
    def __init__(self):
        self.now = 0.0
        self.sleeps = 0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps += 1
        self.now += seconds


class ScriptedBroker:
    """Records every request; ``fetch`` and ``fetch_chunk`` answer from
    scripts (a dict is returned, an exception raised)."""

    def __init__(self, fetches=(), chunks=()):
        self.sent = []
        self.fetches = list(fetches)
        self.chunks = list(chunks)

    def __call__(self, address, message, timeout=30.0, max_bytes=MAX_FRAME_BYTES):
        assert address == ADDRESS
        self.sent.append(dict(message, max_bytes=max_bytes))
        script = {"fetch": self.fetches, "fetch_chunk": self.chunks}.get(message["op"])
        if script is None:
            return {"ok": True, "queued": len(message["specs"]), "duplicates": 0}
        answer = script.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return dict({"results_gz": {}, "chunked": {}, "failed": {},
                     "failed_codes": {}, "pending": 0}, **answer)

    def ops(self, op):
        return [message for message in self.sent if message["op"] == op]


def payload_for(key):
    return {"key": key, "cycles": 1.0}


def inline(*keys):
    return {"results_gz": {key: compress_payload(payload_for(key)) for key in keys}}


@pytest.fixture
def fake_time():
    return FakeTime()


def backend(fake_time, **kwargs):
    kwargs.setdefault("poll_interval", 0.5)
    return DistributedBackend(
        ADDRESS, clock=fake_time.clock, sleep=fake_time.sleep, **kwargs
    )


def install(monkeypatch, broker):
    monkeypatch.setattr(client_module, "request", broker)
    return broker


class TestSubmitAndFetch:
    def test_empty_batch_sends_nothing(self, monkeypatch, fake_time):
        broker = install(monkeypatch, ScriptedBroker())
        assert list(backend(fake_time).execute([])) == []
        assert broker.sent == []

    def test_submit_is_chunked_and_results_stream_in_arrival_order(
        self, monkeypatch, fake_time
    ):
        specs = [make_spec(seed=seed) for seed in range(5)]
        keys = [spec.key() for spec in specs]
        broker = install(
            monkeypatch,
            ScriptedBroker(fetches=[inline(keys[3]), {"pending": 4},
                                    inline(*keys[:3], keys[4])]),
        )
        got = list(backend(fake_time, submit_chunk=2).execute(specs))
        submits = broker.ops("submit")
        assert [len(message["specs"]) for message in submits] == [2, 2, 1]
        assert [c for message in submits for c in message["specs"]] == [
            spec.canonical() for spec in specs
        ]
        assert got[0] == (keys[3], payload_for(keys[3]))
        assert sorted(key for key, _ in got) == sorted(keys)
        # Every poll asks for exactly the keys still outstanding.
        asked = [len(message["keys"]) for message in broker.ops("fetch")]
        assert asked == [5, 4, 4]
        assert fake_time.sleeps == 2  # one poll interval between fetches

    def test_every_fetch_names_its_frame_budget(self, monkeypatch, fake_time):
        spec = make_spec()
        broker = install(monkeypatch, ScriptedBroker(fetches=[inline(spec.key())]))
        list(backend(fake_time, max_frame_bytes=10_000).execute([spec]))
        (fetch,) = broker.ops("fetch")
        assert fetch["max_frame_bytes"] == 5_000
        assert fetch["max_bytes"] == 10_000  # the response frame is capped too

    def test_frame_cap_below_4096_is_rejected(self, fake_time):
        with pytest.raises(ValueError, match="max_frame_bytes"):
            backend(fake_time, max_frame_bytes=4095)

    def test_results_for_keys_not_asked_for_are_ignored(
        self, monkeypatch, fake_time
    ):
        spec = make_spec()
        install(monkeypatch, ScriptedBroker(fetches=[inline(spec.key(), "f" * 64)]))
        got = list(backend(fake_time).execute([spec]))
        assert got == [(spec.key(), payload_for(spec.key()))]


class TestFailures:
    def test_never_submitted_keys_are_resubmitted(self, monkeypatch, fake_time):
        lost, kept = make_spec(seed=1), make_spec(seed=2)
        forgotten = {
            "failed": {lost.key(): "never submitted to this broker"},
            "failed_codes": {lost.key(): FAIL_NEVER_SUBMITTED},
            "pending": 1,
        }
        broker = install(
            monkeypatch,
            ScriptedBroker(fetches=[forgotten, inline(lost.key(), kept.key())]),
        )
        got = dict(backend(fake_time).execute([lost, kept]))
        assert set(got) == {lost.key(), kept.key()}
        assert [message["specs"] for message in broker.ops("submit")] == [
            [lost.canonical(), kept.canonical()],
            [lost.canonical()],
        ]

    def test_submit_rejection_is_surfaced_at_once(self, monkeypatch, fake_time):
        def rejecting(address, message, **kwargs):
            raise BrokerError("submit: bad spec", code=ERR_BAD_REQUEST)

        monkeypatch.setattr(client_module, "request", rejecting)
        with pytest.raises(SimulationError, match="rejected the submitted specs"):
            list(backend(fake_time).execute([make_spec()]))
        assert fake_time.sleeps == 0

    def test_fetch_rejection_propagates(self, monkeypatch, fake_time):
        install(
            monkeypatch,
            ScriptedBroker(fetches=[BrokerError("fetch: nope", code=ERR_BAD_REQUEST)]),
        )
        with pytest.raises(BrokerError) as excinfo:
            list(backend(fake_time).execute([make_spec()]))
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_lost_contact_past_patience_raises(self, monkeypatch, fake_time):
        unreachable = [ConnectionRefusedError("refused")] * 50
        install(monkeypatch, ScriptedBroker(fetches=unreachable))
        with pytest.raises(SimulationError, match="lost contact"):
            list(backend(fake_time, patience=5.0).execute([make_spec()]))
        # Gave up once the 5 s patience ran out, not after the whole script.
        assert 10 <= fake_time.sleeps <= 12

    def test_transport_errors_inside_patience_are_ridden_out(
        self, monkeypatch, fake_time
    ):
        spec = make_spec()
        install(
            monkeypatch,
            ScriptedBroker(fetches=[ConnectionResetError("reset")] * 3
                           + [inline(spec.key())]),
        )
        got = list(backend(fake_time, patience=5.0).execute([spec]))
        assert got == [(spec.key(), payload_for(spec.key()))]


class TestChunkStream:
    def chunked(self, key):
        return {"chunked": {key: len(compress_payload(payload_for(key)))}}

    def slices(self, key, size):
        blob = compress_payload(payload_for(key))
        pieces = [blob[i : i + size] for i in range(0, len(blob), size)]
        return [
            {"data": piece, "eof": i == len(pieces) - 1}
            for i, piece in enumerate(pieces)
        ]

    def test_chunked_payload_reassembles(self, monkeypatch, fake_time):
        spec = make_spec()
        key = spec.key()
        broker = install(
            monkeypatch,
            ScriptedBroker(fetches=[self.chunked(key)], chunks=self.slices(key, 16)),
        )
        got = list(backend(fake_time).execute([spec]))
        assert got == [(key, payload_for(key))]
        offsets = [message["offset"] for message in broker.ops("fetch_chunk")]
        assert offsets == list(range(0, 16 * len(offsets), 16))

    @pytest.mark.parametrize(
        "failure",
        [ConnectionResetError("reset"), {"data": "", "eof": False},
         {"data": "bm90IGd6aXA=", "eof": True}],
        ids=["transport-error", "empty-slice", "corrupt-blob"],
    )
    def test_broken_stream_is_retried_on_the_next_poll(
        self, monkeypatch, fake_time, failure
    ):
        spec = make_spec()
        key = spec.key()
        broker = install(
            monkeypatch,
            ScriptedBroker(fetches=[self.chunked(key), inline(key)],
                           chunks=[failure]),
        )
        got = list(backend(fake_time).execute([spec]))
        assert got == [(key, payload_for(key))]
        assert len(broker.ops("fetch")) == 2

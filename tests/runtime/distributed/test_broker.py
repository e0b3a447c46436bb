"""Queue, lease, ingest and persistence semantics of the Broker (no TCP)."""

import json

import pytest

from repro.runtime import ResultCache, payload_digest
from repro.runtime.distributed import Broker, BrokerServer
from repro.runtime.distributed.protocol import FAIL_GAVE_UP

from distributed_helpers import make_spec, make_specs


def submit_all(broker, specs):
    return broker.submit([spec.canonical() for spec in specs])


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestQueue:
    def test_submit_queues_and_deduplicates(self):
        broker = Broker()
        specs = make_specs()
        first = submit_all(broker, specs)
        assert first == {"queued": len(specs), "duplicates": 0}
        again = submit_all(broker, specs)
        assert again == {"queued": 0, "duplicates": len(specs)}
        assert broker.status()["pending"] == len(specs)

    def test_malformed_batch_rejects_atomically(self):
        broker = Broker()
        good = make_spec().canonical()
        with pytest.raises(Exception):
            broker.submit([good, {"version": 999}])
        # The valid prefix was not half-queued before the rejection.
        assert broker.status()["pending"] == 0

    def test_leases_hand_out_costliest_first(self):
        broker = Broker()
        # Same app/engine: predicted cost is proportional to tiles.
        widths = (2, 8, 4)
        submit_all(broker, [make_spec(width=width) for width in widths])
        leased_widths = [
            broker.lease("w0")["spec"]["config"]["width"] for _ in widths
        ]
        assert leased_widths == [8, 4, 2]
        assert broker.lease("w0")["key"] is None  # queue drained

    def test_cycle_engine_outranks_analytic_at_equal_size(self):
        broker = Broker()
        submit_all(
            broker,
            [make_spec(engine="analytic", seed=1), make_spec(engine="cycle", seed=2)],
        )
        assert broker.lease("w0")["spec"]["config"]["engine"] == "cycle"

    def test_leased_spec_is_not_handed_out_twice(self):
        broker = Broker()
        submit_all(broker, [make_spec()])
        assert broker.lease("w0")["key"] is not None
        assert broker.lease("w1")["key"] is None

    def test_a_lease_carries_the_whole_spec(self):
        broker = Broker()
        spec = make_spec()
        submit_all(broker, [spec])
        lease = broker.lease("w0")
        assert lease["key"] == spec.key()
        assert lease["spec"] == spec.canonical()
        assert lease["attempt"] == 1
        assert set(lease) == {"key", "spec", "attempt", "lease_timeout"}
        status = broker.status()
        assert (status["pending"], status["leased"]) == (0, 1)

    def test_heartbeat_keeps_a_lease_alive(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=10.0, clock=clock)
        submit_all(broker, [make_spec()])
        lease = broker.lease("w0")
        for _ in range(5):
            clock.advance(6.0)
            assert broker.heartbeat("w0", lease["key"])["active"] is True
        # 30 simulated seconds without expiry; now stop heartbeating.
        clock.advance(11.0)
        assert broker.lease("w1")["key"] == lease["key"]  # expired and requeued
        assert broker.heartbeat("w0", lease["key"])["active"] is False

    def test_only_the_holder_renews_and_a_silent_holder_expires(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=10, clock=clock)
        submit_all(broker, [make_spec()])
        first = broker.lease("w0")
        clock.advance(3.0)
        assert broker.heartbeat("w0", first["key"])["active"] is True
        assert broker.heartbeat("w-imposter", first["key"])["active"] is False
        clock.advance(6.0)  # the holder went silent past its renewed deadline
        second = broker.lease("w1")
        assert (second["key"], second["attempt"]) == (first["key"], 2)
        assert broker.heartbeat("w0", first["key"])["active"] is False
        assert broker.stats.expired_leases == 1

    def test_expired_lease_requeues_with_attempt_counted(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=2, clock=clock)
        submit_all(broker, [make_spec()])
        first = broker.lease("w0")
        assert first["attempt"] == 1
        clock.advance(6.0)
        second = broker.lease("w1")
        assert second["key"] == first["key"]
        assert second["attempt"] == 2
        clock.advance(6.0)
        # Attempt cap reached: the spec fails instead of looping forever.
        assert broker.lease("w2")["key"] is None
        fetched = broker.fetch([first["key"]])
        assert "gave up after 2 attempts" in fetched["failed"][first["key"]]

    def test_release_requeues_immediately(self):
        broker = Broker(lease_timeout=3600.0)
        submit_all(broker, [make_spec()])
        lease = broker.lease("w0")
        # Only the lease holder can give a spec back.
        assert broker.release("w-imposter", lease["key"])["requeued"] is False
        assert broker.release("w0", lease["key"], "executor raised")["requeued"]
        assert broker.lease("w1")["key"] == lease["key"]  # no timeout wait

    def test_resubmitting_a_failed_spec_resets_attempts(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=1, clock=clock)
        spec = make_spec()
        submit_all(broker, [spec])
        broker.lease("w0")
        clock.advance(6.0)
        assert broker.fetch([spec.key()])["failed"]  # cap hit
        assert submit_all(broker, [spec])["queued"] == 1
        assert broker.lease("w0")["attempt"] == 1

    def test_equal_cost_specs_lease_in_submission_order(self):
        broker = Broker()
        seeds = (3, 1, 2)  # same app, grid and dataset: equal predicted cost
        submit_all(broker, [make_spec(seed=seed) for seed in seeds])
        leased = [broker.lease("w0")["spec"]["seed"] for _ in seeds]
        assert leased == list(seeds)

    def test_requeued_spec_keeps_its_place_among_equal_costs(self):
        broker = Broker()
        submit_all(broker, [make_spec(seed=1), make_spec(seed=2)])
        first = broker.lease("w0")
        submit_all(broker, [make_spec(seed=3)])
        broker.release("w0", first["key"])
        again = broker.lease("w1")
        assert (again["key"], again["attempt"]) == (first["key"], 2)
        assert [broker.lease("w1")["spec"]["seed"] for _ in range(2)] == [2, 3]

    def test_an_empty_queue_is_not_a_shutdown(self):
        assert Broker().lease("w0") == {"key": None, "shutdown": False}

    def test_a_repeat_within_one_batch_is_queued_once(self):
        broker = Broker()
        spec = make_spec()
        assert submit_all(broker, [spec, spec]) == {"queued": 1, "duplicates": 1}
        assert broker.status()["stats"]["submitted"] == 1
        assert broker.status()["pending"] == 1

    def test_heartbeat_for_an_unknown_key_is_inactive(self):
        broker = Broker()
        assert broker.heartbeat("w0", "f" * 64) == {"active": False}
        assert broker.release("w0", "f" * 64) == {"requeued": False}

    def test_an_unpriceable_spec_sorts_as_free(self, monkeypatch):
        # A spec whose cost cannot be predicted (a dataset this broker's
        # registry does not know) still queues, behind every priced spec.
        from repro.runtime import RunSpec

        priced = RunSpec.predicted_cost

        def predicted_cost(spec):
            if spec.app == "spmv":
                raise KeyError(spec.dataset)
            return priced(spec)

        monkeypatch.setattr(RunSpec, "predicted_cost", predicted_cost)
        broker = Broker()
        submit_all(broker, [make_spec(app="spmv", width=8), make_spec(width=2)])
        apps = [broker.lease("w0")["spec"]["app"] for _ in range(2)]
        assert apps == ["bfs", "spmv"]

    def test_fetch_counts_queued_and_leased_keys_as_pending(self):
        broker = Broker()
        specs = [make_spec(seed=1), make_spec(seed=2)]
        submit_all(broker, specs)
        broker.lease("w0")
        fetched = broker.fetch([spec.key() for spec in specs])
        assert fetched == {
            "results": {}, "failed": {}, "failed_codes": {}, "pending": 2,
        }

    def test_fetch_sweeps_expired_leases(self):
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, clock=clock)
        spec = make_spec()
        submit_all(broker, [spec])
        broker.lease("w0")
        clock.advance(6.0)
        assert broker.fetch([spec.key()])["pending"] == 1
        assert broker.stats.expired_leases == 1
        assert broker.heartbeat("w0", spec.key()) == {"active": False}


class TestIngest:
    def test_valid_upload_accepted_and_fetchable(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        submit_all(broker, [make_spec()])
        lease = broker.lease("w0")
        assert lease["key"] == key
        outcome = broker.ingest("w0", key, payload_digest(payload), payload)
        assert outcome == {"accepted": True, "duplicate": False}
        fetched = broker.fetch([key])
        assert fetched["results"][key] == payload
        assert fetched["pending"] == 0

    def test_digest_mismatch_rejected_and_requeued(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        outcome = broker.ingest("w0", key, "0" * 64, payload)
        assert outcome["accepted"] is False
        assert "digest mismatch" in outcome["reason"]
        assert broker.lease("w1")["key"] == key  # requeued for a retry

    def test_tampered_payload_rejected_by_digest(self, real_payload):
        key, payload = real_payload
        tampered = json.loads(json.dumps(payload))
        tampered["cycles"] = tampered["cycles"] + 1.0
        broker = Broker()
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        outcome = broker.ingest("w0", key, payload_digest(payload), tampered)
        assert outcome["accepted"] is False

    def test_wrong_workload_rejected_structurally(self, real_payload):
        # Digest-valid payload, but for a different spec: the structural
        # ingest check (not the digest) must catch it.
        key_other = make_spec(app="spmv", width=4)
        broker = Broker()
        submit_all(broker, [key_other])
        broker.lease("w0")
        _key, payload = real_payload  # a bfs/2x2 payload
        outcome = broker.ingest(
            "w0", key_other.key(), payload_digest(payload), payload
        )
        assert outcome["accepted"] is False
        assert "spec says" in outcome["reason"]

    def test_unknown_key_rejected(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        outcome = broker.ingest("w0", key, payload_digest(payload), payload)
        assert outcome["accepted"] is False
        assert "unknown spec key" in outcome["reason"]

    def test_duplicate_upload_acknowledged_not_double_counted(self, real_payload):
        key, payload = real_payload
        broker = Broker()
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        assert broker.ingest("w0", key, payload_digest(payload), payload)["accepted"]
        again = broker.ingest("w1", key, payload_digest(payload), payload)
        assert again == {"accepted": True, "duplicate": True}
        assert broker.stats.completed == 1

    def test_verify_ingest_runs_the_conformance_oracles(self, real_payload):
        key, payload = real_payload
        broker = Broker(verify_ingest=True)
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        assert broker.ingest("w0", key, payload_digest(payload), payload)["accepted"]

        # A forged payload that is structurally consistent (right app/shape)
        # but reports impossibly little work: only the oracles catch it.
        forged = json.loads(json.dumps(payload))
        forged["counters"]["edges_processed"] = 0
        forged["counters"]["tasks_executed"] = 0
        broker2 = Broker(verify_ingest=True)
        spec = make_spec()
        broker2.submit([spec.canonical()])
        broker2.lease("w0")
        outcome = broker2.ingest(
            "w0", spec.key(), payload_digest(forged), forged
        )
        assert outcome["accepted"] is False

    def test_valid_upload_after_give_up_is_still_accepted(self, real_payload):
        # The broker hit the attempt cap while the (slow) upload was in
        # flight: a digest-valid, oracle-valid result must win anyway.
        key, payload = real_payload
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=1, clock=clock)
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        clock.advance(6.0)
        broker.status()  # expiry sweep: attempt cap -> failed
        assert broker.fetch([key])["failed"]
        outcome = broker.ingest("w0", key, payload_digest(payload), payload)
        assert outcome["accepted"] is True
        fetched = broker.fetch([key])
        assert fetched["results"][key] == payload
        assert not fetched["failed"]

    def test_stale_rejection_does_not_strip_another_workers_lease(
        self, real_payload
    ):
        # Worker A's lease expired and the spec was re-leased to B; A's
        # (invalid) upload must not requeue the spec under B's feet.
        key, payload = real_payload
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, max_attempts=10, clock=clock)
        submit_all(broker, [make_spec()])
        broker.lease("workerA")
        clock.advance(6.0)
        assert broker.lease("workerB")["key"] == key  # re-leased after expiry
        outcome = broker.ingest("workerA", key, "0" * 64, payload)
        assert outcome["accepted"] is False
        assert broker.heartbeat("workerB", key)["active"] is True  # B unharmed
        assert broker.lease("workerC")["key"] is None  # not double-queued

    def test_accepted_payload_lands_in_the_shared_cache(self, tmp_path, real_payload):
        key, payload = real_payload
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(cache=cache)
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)
        assert cache.load(key) == payload

    def test_cached_key_is_a_submit_duplicate(self, tmp_path, real_payload):
        key, payload = real_payload
        cache = ResultCache(tmp_path / "cache")
        cache.store(key, payload)
        broker = Broker(cache=cache)
        assert submit_all(broker, [make_spec()])["duplicates"] == 1
        assert broker.fetch([key])["results"][key] == payload

    def test_vanished_cache_entry_is_reexecuted_silently(
        self, tmp_path, real_payload
    ):
        key, payload = real_payload
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(cache=cache)
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)
        cache.path_for(key).unlink()  # pruned behind the broker's back
        # fetch_chunk's lookup has no queue side effects ...
        assert broker.fetch_payload(key) is None
        assert broker.status()["pending"] == 0
        # ... but a fetch poll requeues the spec instead of failing it.
        fetched = broker.fetch([key])
        assert (fetched["pending"], fetched["failed"]) == (1, {})
        lease = broker.lease("w1")
        assert (lease["key"], lease["attempt"]) == (key, 1)
        broker.ingest("w1", key, payload_digest(payload), payload)
        assert broker.fetch([key])["results"][key] == payload

    def test_verification_runs_under_a_fresh_lease_window(
        self, real_payload
    ):
        # The lease had one second left when the upload arrived, and the
        # verification takes three: the spec must not be handed to another
        # worker while its valid result is being checked.
        key, payload = real_payload
        clock = FakeClock()
        broker = Broker(lease_timeout=5.0, clock=clock)
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        clock.advance(4.0)
        verify = broker._verify_upload
        during = []

        def slow_verify(*args):
            clock.advance(3.0)
            during.append(broker.lease("w1"))
            return verify(*args)

        broker._verify_upload = slow_verify
        outcome = broker.ingest("w0", key, payload_digest(payload), payload)
        assert outcome == {"accepted": True, "duplicate": False}
        assert during == [{"key": None, "shutdown": False}]
        assert broker.stats.expired_leases == 0


class TestPersistence:
    def test_restart_resumes_pending_and_inflight_specs(self, tmp_path):
        state = tmp_path / "state.json"
        specs = make_specs()
        broker = Broker(state_path=state)
        submit_all(broker, specs)
        broker.lease("w0")  # one in flight; its lease dies with the broker

        resumed = Broker(state_path=state)
        status = resumed.status()
        assert status["pending"] == len(specs)  # leased spec is queued again
        # Everything leases back out, costliest first, with attempts kept.
        keys = set()
        while True:
            lease = resumed.lease("w0")
            if lease["key"] is None:
                break
            keys.add(lease["key"])
        assert keys == {spec.key() for spec in specs}

    def test_restart_serves_completed_results_from_the_cache(
        self, tmp_path, real_payload
    ):
        key, payload = real_payload
        state = tmp_path / "state.json"
        cache = ResultCache(tmp_path / "cache")
        broker = Broker(cache=cache, state_path=state)
        submit_all(broker, [make_spec()])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)

        resumed = Broker(cache=ResultCache(tmp_path / "cache"), state_path=state)
        fetched = resumed.fetch([key])
        assert fetched["results"][key] == payload
        assert resumed.status()["pending"] == 0

    def test_restart_without_cache_forgets_completed_work_recoverably(
        self, tmp_path, real_payload
    ):
        # Completed payloads lived only in the dead broker's memory.  The
        # key must not hang the client: fetch reports it unknown, which
        # makes the client resubmit the spec (exercised end-to-end in
        # test_faults).
        key, payload = real_payload
        state = tmp_path / "state.json"
        spec = make_spec()
        broker = Broker(state_path=state)  # completed payloads in memory only
        submit_all(broker, [spec])
        broker.lease("w0")
        broker.ingest("w0", key, payload_digest(payload), payload)

        resumed = Broker(state_path=state)
        assert "never submitted" in resumed.fetch([key])["failed"][key]
        assert submit_all(resumed, [spec])["queued"] == 1  # re-runs cleanly
        assert resumed.lease("w0")["key"] == key

    def test_journal_with_tenant_and_trace_fields_resumes_one_queue(
        self, tmp_path
    ):
        # Brokers that served tenants and traces journaled both per task.
        # A restart ignores them: the queue resumes costliest first, with
        # attempt counts kept.
        state = tmp_path / "state.json"
        submit_all(Broker(state_path=state), [make_spec(width=w) for w in (2, 8, 4)])
        journal = json.loads(state.read_text())
        for entry in journal["tasks"]:
            width = entry["spec"]["config"]["width"]
            entry["tenant"] = "big" if width == 8 else "small"
            entry["trace"] = {"trace": f"{width:016x}", "parent": "client-1"}
            entry["attempts"] = 2 if width == 4 else 0
        state.write_text(json.dumps(journal))

        resumed = Broker(state_path=state)
        assert resumed.status()["pending"] == 3
        leases = [resumed.lease("w0") for _ in range(3)]
        assert [lease["spec"]["config"]["width"] for lease in leases] == [8, 4, 2]
        assert [lease["attempt"] for lease in leases] == [1, 3, 1]
        assert all("trace" not in lease for lease in leases)
        resumed.release("w0", leases[0]["key"])  # rewrites the journal
        saved = json.loads(state.read_text())["tasks"]
        assert all(set(entry) == {"spec", "attempts"} for entry in saved)

    def test_journal_holds_only_incomplete_work(self, tmp_path, real_payload):
        key, payload = real_payload
        state = tmp_path / "state.json"
        broker = Broker(state_path=state)
        other = make_spec(seed=9)
        submit_all(broker, [make_spec(), other])
        assert broker.lease("w0")["key"] == key
        broker.ingest("w0", key, payload_digest(payload), payload)
        journal = json.loads(state.read_text())
        assert journal["format"] == "dalorex-broker-state/1"
        assert journal["tasks"] == [{"spec": other.canonical(), "attempts": 0}]
        assert journal["completed"] == [key]  # a bare key, no payload
        assert (journal["failed"], journal["failed_codes"]) == ({}, {})

    def test_journal_writes_are_atomic_replacements(self, tmp_path):
        state = tmp_path / "nested" / "dir" / "state.json"
        broker = Broker(state_path=state)
        assert not state.exists()  # a first boot writes nothing
        for seed in (1, 2, 3):
            submit_all(broker, [make_spec(seed=seed)])
        assert len(json.loads(state.read_text())["tasks"]) == 3
        assert [path.name for path in state.parent.iterdir()] == ["state.json"]

    def test_attempt_counts_survive_restarts_and_still_hit_the_cap(
        self, tmp_path
    ):
        state = tmp_path / "state.json"
        spec = make_spec()
        broker = Broker(state_path=state, max_attempts=2)
        submit_all(broker, [spec])
        assert broker.lease("w0")["attempt"] == 1
        broker.release("w0", spec.key())  # journals the attempt

        resumed = Broker(state_path=state, max_attempts=2)
        assert resumed.lease("w0")["attempt"] == 2
        assert resumed.release("w0", spec.key()) == {"requeued": False}
        assert resumed.fetch([spec.key()])["failed_codes"] == {
            spec.key(): FAIL_GAVE_UP
        }

    def test_failures_survive_a_restart_with_their_codes(self, tmp_path):
        state = tmp_path / "state.json"
        spec = make_spec()
        broker = Broker(state_path=state, max_attempts=1)
        submit_all(broker, [spec])
        broker.lease("w0")
        broker.release("w0", spec.key(), "executor raised: boom")

        fetched = Broker(state_path=state).fetch([spec.key()])
        assert fetched["failed_codes"] == {spec.key(): FAIL_GAVE_UP}
        assert "executor raised: boom" in fetched["failed"][spec.key()]

    def test_journal_without_codes_reads_failures_as_give_ups(self, tmp_path):
        state = tmp_path / "state.json"
        spec = make_spec()
        broker = Broker(state_path=state, max_attempts=1)
        submit_all(broker, [spec])
        broker.lease("w0")
        broker.release("w0", spec.key())
        journal = json.loads(state.read_text())
        del journal["failed_codes"]  # written before codes existed
        state.write_text(json.dumps(journal))

        resumed = Broker(state_path=state)
        assert resumed.fetch([spec.key()])["failed_codes"] == {
            spec.key(): FAIL_GAVE_UP
        }
        assert resumed.status()["failed"] == 1

    def test_expiry_at_the_cap_is_journaled(self, tmp_path):
        state = tmp_path / "state.json"
        clock = FakeClock()
        spec = make_spec()
        broker = Broker(state_path=state, lease_timeout=5.0, max_attempts=1,
                        clock=clock)
        submit_all(broker, [spec])
        broker.lease("w0")
        clock.advance(6.0)
        broker.status()  # the sweep that notices the expiry
        journal = json.loads(state.read_text())
        assert journal["tasks"] == []
        assert journal["failed_codes"] == {spec.key(): FAIL_GAVE_UP}
        assert Broker(state_path=state).lease("w0")["key"] is None

    def test_journal_of_another_format_is_a_hard_error(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"format": "dalorex-broker-state/0",
                                     "tasks": []}))
        with pytest.raises(ValueError, match="dalorex-broker-state/0"):
            Broker(state_path=state)

    def test_unreadable_state_is_a_hard_error(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text("{broken")
        with pytest.raises(ValueError):
            Broker(state_path=state)

    def test_journaled_partition_count_is_a_hard_error(self, tmp_path):
        # A journal written before partitioned execution was removed may
        # hold a spec with a partition count: the restart fails loudly
        # instead of resuming it under a key no client waits for.
        state = tmp_path / "state.json"
        submit_all(Broker(state_path=state), [make_spec()])
        journal = json.loads(state.read_text())
        journal["tasks"][0]["spec"]["shards"] = 2
        state.write_text(json.dumps(journal))
        with pytest.raises(ValueError, match="shards"):
            Broker(state_path=state)


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            Broker(lease_timeout=0)
        with pytest.raises(ValueError):
            Broker(max_attempts=0)

    @pytest.mark.parametrize("cap, ok", [(1023, False), (1024, True)])
    def test_server_frame_cap_has_a_floor(self, cap, ok):
        if not ok:
            with pytest.raises(ValueError, match="max_message_bytes"):
                BrokerServer(Broker(), max_message_bytes=cap)
            return
        server = BrokerServer(Broker(), max_message_bytes=cap)
        try:
            assert server.max_message_bytes == cap
            assert server.address[1] > 0  # bound before serving
        finally:
            server.stop()

    def test_fetch_of_never_submitted_key_fails_fast(self):
        broker = Broker()
        fetched = broker.fetch(["f" * 64])
        assert "never submitted" in fetched["failed"]["f" * 64]

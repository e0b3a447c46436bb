"""Regression tests for the latent transport bugs fixed alongside v3.

Each test here fails on the pre-fix code:

* the client resubmitted any failure whose free-text reason *contained*
  "never submitted" -- a poisoned give-up reason looped forever;
* the client's submit retry loop never consulted the backend's overall
  ``timeout`` budget;
* the worker silently leaked its heartbeat thread when the post-run join
  timed out.

(The unbounded-``readline`` and IPv6 ``parse_address`` regressions live in
``test_protocol.py`` next to the rest of the framing/addressing tests.)
"""

import time

import pytest

from repro.errors import SimulationError
from repro.runtime.distributed import Broker, DistributedBackend, Worker
from repro.runtime.distributed.protocol import FAIL_GAVE_UP, FAIL_NEVER_SUBMITTED

from distributed_helpers import fleet, make_spec


class FakeTime:
    """Deterministic clock: sleeping advances it, nothing else does."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = 0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps += 1
        self.now += seconds


class TestPoisonedGiveUpReason:
    POISON = "input graph was never submitted to peer review"

    def test_give_up_with_poisoned_reason_is_fatal_not_resubmitted(self):
        """A genuine give-up whose reason contains the words "never
        submitted" must surface as the failure it is -- the substring match
        used to resubmit it (and re-fail it) in an endless loop."""

        def poisoned_executor(canonical):
            raise RuntimeError(self.POISON)

        broker = Broker(max_attempts=1)
        spec = make_spec()
        with fleet(broker, num_workers=1, executor=poisoned_executor) as (
            server,
            _workers,
        ):
            backend = DistributedBackend(
                server.address, poll_interval=0.01, timeout=20.0
            )
            with pytest.raises(SimulationError, match="gave up") as excinfo:
                list(backend.execute([spec]))
        assert self.POISON in str(excinfo.value)
        # Fatal means fatal: the spec was not quietly handed back.
        assert broker.stats.submitted == 1

    def test_failure_without_a_code_is_fatal(self):
        """Only the never-submitted code means amnesia: a failed key with no
        code is fatal, even when its reason is the never-submitted text."""
        backend = DistributedBackend(("127.0.0.1", 1))
        resubmitted = []
        backend._submit = lambda canonicals, started: resubmitted.extend(canonicals)

        outstanding = {"k1": {"spec": 1}}
        fatal = {}
        backend._handle_failures(
            {"k1": "never submitted to this broker"},
            {},
            outstanding,
            fatal,
            started=0.0,
        )
        assert resubmitted == []
        assert fatal == {"k1": "never submitted to this broker"}
        assert outstanding == {}

    def test_v3_codes_override_the_reason_text(self):
        """Even the exact never-submitted reason string must not trigger a
        resubmit unless the code says never-submitted."""
        backend = DistributedBackend(("127.0.0.1", 1))
        resubmitted = []
        backend._submit = lambda canonicals, started: resubmitted.extend(canonicals)

        outstanding = {"k1": {"spec": 1}, "k2": {"spec": 2}}
        fatal = {}
        backend._handle_failures(
            {
                "k1": "never submitted to this broker",
                "k2": "some opaque reason",
            },
            {"k1": FAIL_GAVE_UP, "k2": FAIL_NEVER_SUBMITTED},
            outstanding,
            fatal,
            started=0.0,
        )
        assert resubmitted == [{"spec": 2}]
        assert set(fatal) == {"k1"}


class TestSubmitHonorsTheBatchBudget:
    def test_unreachable_broker_respects_overall_timeout(self):
        """The submit retry loop must stop at the backend's wall-clock
        budget -- it used to retry for the full patience window (here ten
        minutes) regardless."""
        fake = FakeTime()
        backend = DistributedBackend(
            ("127.0.0.1", 1),  # nothing listens on port 1
            poll_interval=0.5,
            timeout=30.0,
            patience=600.0,
            clock=fake.clock,
            sleep=fake.sleep,
        )
        with pytest.raises(SimulationError, match="budget"):
            list(backend.execute([make_spec()]))
        # The loop stopped within one poll of the budget, nowhere near the
        # 600s patience deadline.
        assert fake.now <= 31.0
        assert fake.sleeps > 0

    def test_no_timeout_still_honors_patience(self):
        fake = FakeTime()
        backend = DistributedBackend(
            ("127.0.0.1", 1),
            poll_interval=1.0,
            timeout=None,
            patience=5.0,
            clock=fake.clock,
            sleep=fake.sleep,
        )
        with pytest.raises(SimulationError, match="cannot submit"):
            list(backend.execute([make_spec()]))
        assert fake.now <= 7.0


class TestHeartbeatThreadLeak:
    def test_leaked_heartbeat_thread_is_counted_and_logged(self):
        """A heartbeat blocked in a slow request past the join timeout must
        be reported, not silently abandoned."""
        lines = []
        worker = Worker(
            ("127.0.0.1", 1),
            worker_id="w0",
            executor=lambda canonical: dict(canonical),
            log=lines.append,
        )
        worker.heartbeat_join_timeout = 0.05

        def slow_send(message):
            if message.get("op") == "heartbeat":
                time.sleep(1.0)  # a dead TCP peer: the request just hangs
                return None
            return {"accepted": True, "duplicate": False}

        worker._send_quietly = slow_send
        # lease_timeout 0.15 -> heartbeat interval 0.05; the executor takes
        # long enough for one heartbeat to fire and block in slow_send.
        original_executor = worker.executor
        worker.executor = lambda canonical: (
            time.sleep(0.15),
            original_executor(canonical),
        )[1]
        accepted = worker._run_one("k" * 64, {"x": 1}, lease_timeout=0.15)
        assert accepted
        assert worker.leaked_heartbeats == 1
        assert worker.stats()["leaked_heartbeats"] == 1
        assert any("heartbeat thread" in line for line in lines)

    def test_prompt_heartbeat_exit_is_not_flagged(self):
        worker = Worker(
            ("127.0.0.1", 1),
            worker_id="w0",
            executor=lambda canonical: dict(canonical),
        )
        worker._send_quietly = lambda message: {"accepted": True}
        assert worker._run_one("k" * 64, {"x": 1}, lease_timeout=60.0)
        assert worker.leaked_heartbeats == 0
        assert worker.stats() == {
            "completed": 1, "rejected": 0, "errors": 0, "leases": 0,
            "uploads": 1, "leaked_heartbeats": 0,
        }

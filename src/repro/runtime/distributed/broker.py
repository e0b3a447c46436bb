"""The broker: a costliest-first RunSpec queue with leases and verified ingest.

One broker serves a whole fleet: clients ``submit`` batches of canonical
specs and ``fetch`` completed payloads; workers ``lease`` one spec at a time
(pull-based, so a slow worker never blocks a fast one), ``heartbeat`` while
simulating, and upload a ``result`` with a content digest.  All state
transitions live in :class:`Broker` behind one lock; :class:`BrokerServer`
is an asyncio TCP front end (``asyncio.start_server``) that keeps hundreds
of concurrent connections cheap -- one task per connection instead of one
thread -- while every broker op runs on a worker thread so the lock-guarded
state machine never stalls the event loop.

The server speaks ``dalorex-dist/3`` only: a request stamped with any other
generation (or with none) is refused with the typed ``unsupported-protocol``
code.  Uploads travel as ``payload_gz`` and fetch answers as ``results_gz``
plus a ``chunked`` map; there is no plain-JSON payload encoding.

Failure semantics (see ``docs/DISTRIBUTED.md``):

* a worker that stops heartbeating loses its lease after ``lease_timeout``
  seconds and the spec is requeued;
* every lease counts against ``max_attempts``; a spec that keeps crashing
  workers (or keeps failing ingest) is marked failed with a reason (and the
  structured ``gave-up`` code) instead of looping forever;
* an uploaded payload is accepted only if its digest matches and the
  :mod:`repro.verify.ingest` checks pass (structural always; full
  reference-executor conformance with ``verify_ingest=True``) -- rejected
  uploads requeue the spec;
* with a ``state_path``, the queue journal survives broker restarts:
  pending and in-flight specs resume, completed keys are served from the
  shared :class:`~repro.runtime.cache.ResultCache` when one is configured
  and re-executed otherwise.

Results are served "first valid upload wins": duplicates (a worker whose
lease expired but whose upload still arrives) are acknowledged and
discarded, which is safe because every simulation is deterministic and every
upload is digest- and oracle-checked.

After a ``shutdown`` op the server keeps answering for
:data:`SHUTDOWN_GRACE_SECONDS`, and every lease in that window is told to
exit, so an idle worker stops at its next poll instead of waiting out its
connect patience.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.cache import ResultCache, payload_digest
from repro.runtime.distributed.protocol import (
    ERR_BAD_REQUEST,
    ERR_FRAME_TOO_LARGE,
    ERR_UNKNOWN_KEY,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_PROTOCOL,
    FAIL_GAVE_UP,
    FAIL_NEVER_SUBMITTED,
    MAX_FRAME_BYTES,
    PROTOCOL,
    ProtocolError,
    REJECT_BAD_PAYLOAD,
    REJECT_DIGEST_MISMATCH,
    REJECT_INGEST,
    REJECT_TRANSPORT,
    REJECT_UNKNOWN_KEY,
    compress_payload,
    decompress_payload,
    encode_message,
)
from repro.runtime.spec import RunSpec
from repro.telemetry import get_telemetry

#: Format tag of the on-disk queue journal (bump on incompatible changes).
#: Readers ignore task fields they do not know, such as the ``tenant`` and
#: ``trace`` that older brokers journaled.
STATE_FORMAT = "dalorex-broker-state/1"

#: ``fetch_chunk`` slice size when the requester names none.
DEFAULT_CHUNK_BYTES = 1024 * 1024

#: Seconds the server keeps answering after a ``shutdown`` op, so idle
#: workers polling at their default 0.5 s hear the shutdown on a lease.
SHUTDOWN_GRACE_SECONDS = 2.0


@dataclass
class _Task:
    """One incomplete spec: queued, or leased to a worker."""

    key: str
    canonical: Dict[str, Any]
    cost: float
    seq: int
    attempts: int = 0
    worker: Optional[str] = None
    deadline: Optional[float] = None

    @property
    def leased(self) -> bool:
        return self.worker is not None


@dataclass
class _Completed:
    """One finished spec; the payload lives here or in the shared cache.

    ``canonical`` is kept only when it is still needed to requeue the spec
    should the cached payload vanish; entries recovered from the journal
    carry ``None`` (a client that still wants the result resubmits it).
    """

    canonical: Optional[Dict[str, Any]]
    payload: Optional[Dict[str, Any]] = None  # None -> look in the cache


@dataclass
class BrokerStats:
    """Counters exposed by the ``status`` op (monitoring / tests)."""

    submitted: int = 0
    duplicates: int = 0
    leases: int = 0
    completed: int = 0
    rejected: int = 0
    requeues: int = 0
    expired_leases: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class Broker:
    """Queue, lease and ingest logic (transport-free; see BrokerServer).

    Args:
        cache: shared result cache; accepted payloads are stored here, and
            completed work is served from here across restarts.
        lease_timeout: seconds a worker may go without a heartbeat before
            its spec is requeued.
        max_attempts: leases granted per spec before it is marked failed.
        verify_ingest: run the reference-executor conformance oracles on
            every upload (structural checks always run).
        state_path: JSON journal for restart-safe queueing (optional).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        lease_timeout: float = 60.0,
        max_attempts: int = 5,
        verify_ingest: bool = False,
        state_path: Optional[os.PathLike] = None,
        clock=time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.cache = cache
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.verify_ingest = bool(verify_ingest)
        self.state_path = Path(state_path) if state_path else None
        self.stats = BrokerStats()
        self._clock = clock
        # Spans and events to DALOREX_TELEMETRY_JSONL, like every other
        # process; telemetry never steers the queue.
        self.telemetry = get_telemetry()
        self._started = clock()
        # Totals of every structured ERR_*/FAIL_*/REJECT_* code this broker
        # emitted or recorded, so rejections are countable, not just logged.
        # FAIL_NEVER_SUBMITTED counts per fetch *response* (the condition is
        # per-poll, not per-spec); everything else counts once per incident.
        self._code_totals: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._tasks: Dict[str, _Task] = {}
        # Costliest first, submission order among equal costs.  Entries of
        # tasks that completed, failed or were leased since are skipped.
        self._queue: List[Tuple[float, int, str]] = []
        self._completed: Dict[str, _Completed] = {}
        self._failed: Dict[str, str] = {}
        self._failed_codes: Dict[str, str] = {}
        # Per-worker activity counters (in-memory only; a restarted broker
        # starts a fresh ledger): worker id -> leases/completed/rejected/
        # released counts, surfaced by the ``status`` op.
        self._workers: Dict[str, Dict[str, int]] = {}
        # Canonical specs of failed keys (in-memory only): lets a late but
        # valid upload for a given-up spec still be verified and accepted.
        self._failed_specs: Dict[str, Dict[str, Any]] = {}
        self._seq = 0
        self._shutdown = False
        if self.state_path is not None:
            self._load_state()

    # ----------------------------------------------------------------- ops
    def submit(self, canonicals: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Queue new specs (deduplicated against everything already known).

        All-or-nothing: every spec is validated before any is queued, so a
        malformed batch rejects cleanly -- the client gets the error, and
        the journal never holds a half-accepted batch.
        """
        queued = duplicates = 0
        specs = [RunSpec.from_canonical(canonical) for canonical in canonicals]
        with self._lock:
            for spec in specs:
                key = spec.key()
                if (
                    key in self._tasks
                    or key in self._completed
                    or (self.cache is not None and key in self.cache)
                ):
                    duplicates += 1  # a repeat within the batch is queued here
                    continue
                # A resubmitted failure gets a fresh set of attempts.
                self._failed.pop(key, None)
                self._failed_codes.pop(key, None)
                self._failed_specs.pop(key, None)
                self._enqueue_locked(key, spec.canonical(), _safe_cost(spec))
                queued += 1
            self.stats.submitted += queued
            self.stats.duplicates += duplicates
            if queued:
                self._save_state_locked()
        return {"queued": queued, "duplicates": duplicates}

    def lease(self, worker: str) -> Dict[str, Any]:
        """Hand out the costliest queued spec."""
        with self._lock:
            if self._shutdown:
                return {"key": None, "shutdown": True}
            self._requeue_expired_locked()
            while self._queue:
                _neg_cost, _seq, key = heapq.heappop(self._queue)
                task = self._tasks.get(key)
                if task is None or task.leased:
                    continue  # completed/failed/re-leased since queueing
                task.attempts += 1
                task.worker = worker
                task.deadline = self._clock() + self.lease_timeout
                self.stats.leases += 1
                self._worker_ledger_locked(worker)["leases"] += 1
                self.telemetry.emit(
                    "event",
                    name="lease.granted",
                    key=key[:12],
                    worker=worker,
                    attempt=task.attempts,
                )
                return {
                    "key": key,
                    "spec": task.canonical,
                    "attempt": task.attempts,
                    "lease_timeout": self.lease_timeout,
                }
            return {"key": None, "shutdown": False}

    def heartbeat(self, worker: str, key: str) -> Dict[str, Any]:
        """Extend a lease; ``active: False`` tells the worker it lost it."""
        with self._lock:
            task = self._tasks.get(key)
            if task is None or task.worker != worker:
                return {"active": False}
            task.deadline = self._clock() + self.lease_timeout
            return {"active": True}

    def release(self, worker: str, key: str, error: str = "") -> Dict[str, Any]:
        """A worker gives a spec back (its executor raised): requeue now
        instead of waiting for the lease to expire.
        """
        with self._lock:
            task = self._tasks.get(key)
            if task is None or task.worker != worker:
                return {"requeued": False}
            requeued = self._requeue_locked(
                task, error or f"released by worker {worker}"
            )
            self._worker_ledger_locked(worker)["released"] += 1
            self._save_state_locked()
            return {"requeued": requeued}

    def ingest(
        self,
        worker: str,
        key: str,
        digest: str,
        payload: Optional[Dict[str, Any]],
        transport_error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Verify and accept one uploaded result (first valid upload wins).

        ``transport_error`` short-circuits verification with a decoding
        failure the transport layer already diagnosed (a corrupt gzip blob)
        -- the upload is rejected with that exact reason and the spec
        requeued.  Rejections carry a structured ``code`` next to the
        human-readable ``reason``.
        """
        with self._lock:
            if key in self._completed or (
                self.cache is not None and key in self.cache
            ):
                return {"accepted": True, "duplicate": True}
            task = self._tasks.get(key)
            if task is not None:
                canonical = task.canonical
                if task.leased:
                    # A fresh full lease window for the verification below:
                    # the worker stops heartbeating once it starts uploading,
                    # and an expiry mid-verify would hand the spec to another
                    # worker even though a valid result is seconds away.
                    task.deadline = self._clock() + self.lease_timeout
            elif key in self._failed_specs:
                # Given up on, but a worker is still uploading: verify it
                # like any other -- a valid late result beats a failure.
                canonical = self._failed_specs[key]
            else:
                self.stats.rejected += 1
                self._worker_ledger_locked(worker)["rejected"] += 1
                self._count_code_locked(REJECT_UNKNOWN_KEY)
                return {
                    "accepted": False,
                    "reason": f"unknown spec key {key}",
                    "code": REJECT_UNKNOWN_KEY,
                }
        # Verification and cache writes happen outside the lock: digesting a
        # multi-megabyte payload (and possibly running the reference
        # executor, or writing to a slow shared filesystem) must not stall
        # every other worker's lease or heartbeat.
        telemetry = self.telemetry
        with telemetry.scope(spec=key[:12], worker=worker), telemetry.span(
            "broker.ingest"
        ):
            if transport_error is not None:
                reason: Optional[str] = transport_error
                code = REJECT_TRANSPORT
            else:
                reason, code = self._verify_upload(canonical, digest, payload)
            stored = None
            if reason is None and self.cache is not None:
                # Content-addressed and digest-checked: storing before taking
                # the final decision is idempotent even if a twin upload races.
                stored = self.cache.store(key, payload)
        with self._lock:
            task = self._tasks.get(key)
            if reason is not None:
                self.stats.rejected += 1
                self._worker_ledger_locked(worker)["rejected"] += 1
                self._count_code_locked(code)
                # Requeue only if the uploader still owns the lease: a stale
                # rejected upload (expired lease, spec re-leased or already
                # requeued) must not strip another worker's active lease or
                # double-queue the key.
                if task is not None and task.worker == worker:
                    self._requeue_locked(task, reason)
                    self._save_state_locked()
                return {"accepted": False, "reason": reason, "code": code}
            if task is None and key in self._completed:
                return {"accepted": True, "duplicate": True}
            # A verified-valid result is accepted even when the task is no
            # longer live -- including a spec the broker gave up on while
            # the (slow) verification ran: first valid upload wins.
            if task is not None:
                del self._tasks[key]
            self._failed.pop(key, None)
            self._failed_codes.pop(key, None)
            self._failed_specs.pop(key, None)
            self._completed[key] = _Completed(
                canonical, None if stored is not None else payload
            )
            self.stats.completed += 1
            self._worker_ledger_locked(worker)["completed"] += 1
            self.telemetry.emit(
                "event", name="lease.completed", key=key[:12], worker=worker
            )
            self._save_state_locked()
            return {"accepted": True, "duplicate": False}

    def fetch(self, keys: List[str]) -> Dict[str, Any]:
        """Completed payloads (and failures) among ``keys``.

        Keys this broker has never seen are still looked up in the shared
        cache, so a client can harvest results across a broker restart.
        Cache reads (full payload parse + digest) happen outside the broker
        lock so slow shared filesystems never stall leases and heartbeats.
        ``failed_codes`` mirrors ``failed`` with structured codes.  The
        server encodes ``results`` onto the wire (see ``_dispatch_fetch``).
        """
        results: Dict[str, Dict[str, Any]] = {}
        failed: Dict[str, str] = {}
        failed_codes: Dict[str, str] = {}
        disk_lookups: List[str] = []
        pending = 0
        with self._lock:
            self._requeue_expired_locked()
            for key in keys:
                done = self._completed.get(key)
                if done is not None and done.payload is not None:
                    results[key] = done.payload
                elif key in self._failed:
                    failed[key] = self._failed[key]
                    failed_codes[key] = self._failed_codes.get(key, FAIL_GAVE_UP)
                elif done is None and key in self._tasks:
                    pending += 1
                elif done is not None or self.cache is not None:
                    disk_lookups.append(key)  # completed-in-cache or unknown
                else:
                    failed[key] = "never submitted to this broker"
                    failed_codes[key] = FAIL_NEVER_SUBMITTED
                    self._count_code_locked(FAIL_NEVER_SUBMITTED)
        for key in disk_lookups:
            payload = self.cache.load(key) if self.cache is not None else None
            if payload is not None:
                results[key] = payload
                continue
            with self._lock:
                done = self._completed.pop(key, None)
                if done is not None and done.payload is not None:
                    # A twin ingest landed between the two phases.
                    self._completed[key] = done
                    results[key] = done.payload
                elif done is not None and done.canonical is not None:
                    # Completed, but the cached payload vanished (pruned?):
                    # silently re-execute rather than hang the client.
                    spec = RunSpec.from_canonical(done.canonical)
                    self._enqueue_locked(key, done.canonical, _safe_cost(spec))
                    pending += 1
                elif key in self._tasks:
                    pending += 1  # requeued by a concurrent fetch
                else:
                    # Unknown here and not in the cache (including journal
                    # recoveries without a spec): the client resubmits.
                    failed[key] = "never submitted to this broker"
                    failed_codes[key] = FAIL_NEVER_SUBMITTED
                    self._count_code_locked(FAIL_NEVER_SUBMITTED)
        return {
            "results": results,
            "failed": failed,
            "failed_codes": failed_codes,
            "pending": pending,
        }

    def fetch_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """The completed payload for one key, or ``None``.

        Backs the ``fetch_chunk`` op; deliberately free of queue side
        effects (no requeue of vanished cache entries -- the client's
        regular ``fetch`` poll handles that).
        """
        with self._lock:
            done = self._completed.get(key)
            if done is not None and done.payload is not None:
                return done.payload
        if self.cache is not None:
            return self.cache.load(key)
        return None

    def status(self) -> Dict[str, Any]:
        """Queue counts, counters, structured-code totals and the
        per-worker ledger (the ``status`` op)."""
        with self._lock:
            self._requeue_expired_locked()
            leased = sum(1 for task in self._tasks.values() if task.leased)
            return {
                "pending": len(self._tasks) - leased,
                "leased": leased,
                "completed": len(self._completed),
                "failed": len(self._failed),
                "shutdown": self._shutdown,
                "uptime_seconds": self._clock() - self._started,
                "stats": self.stats.to_dict(),
                "codes": dict(self._code_totals),
                "per_worker": {
                    worker: dict(ledger)
                    for worker, ledger in sorted(self._workers.items())
                },
            }

    @property
    def is_shutdown(self) -> bool:
        with self._lock:
            return self._shutdown

    def shutdown(self) -> Dict[str, Any]:
        """Stop handing out work; subsequent leases tell workers to exit."""
        with self._lock:
            self._shutdown = True
            return {"shutdown": True}

    # ------------------------------------------------------------ internals
    def count_code(self, code: str) -> None:
        """Tally one structured code incident (server-level errors call this
        from outside the lock; internal sites use the ``_locked`` twin)."""
        with self._lock:
            self._count_code_locked(code)

    def _count_code_locked(self, code: str) -> None:
        self._code_totals[code] = self._code_totals.get(code, 0) + 1

    def _worker_ledger_locked(self, worker: str) -> Dict[str, int]:
        ledger = self._workers.get(worker)
        if ledger is None:
            ledger = {"leases": 0, "completed": 0, "rejected": 0, "released": 0}
            self._workers[worker] = ledger
        return ledger

    def _verify_upload(
        self, canonical: Dict[str, Any], digest: str, payload: Dict[str, Any]
    ) -> Tuple[Optional[str], Optional[str]]:
        """``(None, None)`` if the upload is trustworthy, else the rejection
        ``(reason, code)``."""
        if payload is None:
            return "upload carries no payload_gz", REJECT_BAD_PAYLOAD
        if not isinstance(payload, dict):
            return (
                f"payload is not an object: {type(payload).__name__}",
                REJECT_BAD_PAYLOAD,
            )
        actual = payload_digest(payload)
        if actual != digest:
            return (
                f"payload digest mismatch: claimed {digest[:12]}, got {actual[:12]}",
                REJECT_DIGEST_MISMATCH,
            )
        from repro.verify.ingest import ingest_violations

        spec = RunSpec.from_canonical(canonical)
        violations = ingest_violations(spec, payload, conformance=self.verify_ingest)
        if violations:
            return "; ".join(violations), REJECT_INGEST
        return None, None

    def _enqueue_locked(
        self, key: str, canonical: Dict[str, Any], cost: float, attempts: int = 0
    ) -> None:
        self._seq += 1
        self._tasks[key] = _Task(key, canonical, cost, self._seq, attempts)
        heapq.heappush(self._queue, (-cost, self._seq, key))

    def _requeue_locked(self, task: _Task, reason: str) -> bool:
        """Give a leased task back to the queue, or fail it at the cap."""
        task.worker = None
        task.deadline = None
        if task.attempts >= self.max_attempts:
            del self._tasks[task.key]
            self._failed[task.key] = (
                f"gave up after {task.attempts} attempts (last: {reason})"
            )
            self._failed_codes[task.key] = FAIL_GAVE_UP
            self._failed_specs[task.key] = task.canonical
            self._count_code_locked(FAIL_GAVE_UP)
            return False
        self.stats.requeues += 1
        heapq.heappush(self._queue, (-task.cost, task.seq, task.key))
        return True

    def _requeue_expired_locked(self) -> None:
        now = self._clock()
        expired = [
            task
            for task in self._tasks.values()
            if task.leased and task.deadline is not None and task.deadline < now
        ]
        for task in expired:
            self.stats.expired_leases += 1
            worker = task.worker
            self._requeue_locked(
                task, f"lease expired (worker {worker} stopped heartbeating)"
            )
        if expired:
            # Expiry changes what a restarted broker must re-run; journal it.
            self._save_state_locked()

    # ---------------------------------------------------------- persistence
    def _save_state_locked(self) -> None:
        if self.state_path is None:
            return
        # Completed entries journal as bare keys: their payloads live in the
        # shared cache (or die with this process), and a restarted broker
        # can always fall back to "never submitted" -- the client resubmits.
        # This keeps the journal proportional to *incomplete* work instead
        # of growing with everything ever finished.
        state = {
            "format": STATE_FORMAT,
            "tasks": [
                {"spec": task.canonical, "attempts": task.attempts}
                for task in self._tasks.values()
            ],
            "completed": sorted(self._completed),
            "failed": dict(self._failed),
            "failed_codes": dict(self._failed_codes),
        }
        tmp = self.state_path.with_suffix(f".tmp.{os.getpid()}")
        self.state_path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.state_path)

    def _load_state(self) -> None:
        try:
            state = json.loads(self.state_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return  # first boot: nothing to resume
        except (OSError, ValueError) as exc:
            raise ValueError(f"broker state {self.state_path} is unreadable: {exc}")
        if state.get("format") != STATE_FORMAT:
            raise ValueError(
                f"broker state {self.state_path} has format "
                f"{state.get('format')!r}, expected {STATE_FORMAT!r}"
            )
        with self._lock:
            for entry in state.get("tasks", []):
                spec = RunSpec.from_canonical(entry["spec"])
                key = spec.key()
                if self.cache is not None and key in self.cache:
                    # Finished (by a twin, or journaled just before the
                    # accept was recorded): serve from the cache, don't
                    # re-simulate.
                    self._completed[key] = _Completed(spec.canonical())
                    continue
                # In-flight leases died with the previous broker process:
                # everything incomplete restarts as queued.  Attempt counts
                # survive so a crash-looping spec still hits the cap.
                self._enqueue_locked(
                    key,
                    spec.canonical(),
                    _safe_cost(spec),
                    attempts=int(entry.get("attempts", 0)),
                )
            for key in state.get("completed", []):
                if self.cache is not None and str(key) in self.cache:
                    # Payload lives in the shared cache; serve it from
                    # there.  No canonical spec survives the journal: if the
                    # cache entry later vanishes too, fetch reports "never
                    # submitted" and the client resubmits.
                    self._completed[str(key)] = _Completed(None)
                # Otherwise the payload died with the old broker's memory:
                # drop the key; the owning client resubmits the spec.
            self._failed.update(
                {str(k): str(v) for k, v in state.get("failed", {}).items()}
            )
            # Pre-v3 journals carry no codes; every journaled failure is an
            # attempt-cap give-up, so that is the faithful default.
            codes = state.get("failed_codes", {})
            self._failed_codes.update(
                {
                    key: str(codes.get(key, FAIL_GAVE_UP))
                    for key in self._failed
                }
            )


def _safe_cost(spec: RunSpec) -> float:
    """Queue priority; unknown datasets sort as free rather than erroring."""
    try:
        return spec.predicted_cost()
    except Exception:
        return 0.0


# ------------------------------------------------------------------ server
class BrokerServer:
    """Asyncio TCP front end for one :class:`Broker`.

    ``asyncio.start_server`` handles connection concurrency (one cheap task
    per connection instead of one thread), with per-line frames bounded by
    ``max_message_bytes`` -- an oversized line is answered with the typed
    ``frame-too-large`` error and the connection dropped, so a hostile peer
    can no longer balloon broker memory.  Every broker op runs via
    ``asyncio.to_thread`` because the state machine's verification and
    cache I/O may block.

    The public surface is unchanged from the threaded era: ``port=0`` binds
    an ephemeral port (synchronously, in the constructor, so ``address`` is
    readable before serving); use as a context manager in tests, or
    :meth:`serve_forever` in the CLI.
    """

    def __init__(
        self,
        broker: Broker,
        host: str = "127.0.0.1",
        port: int = 0,
        max_message_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if max_message_bytes < 1024:
            raise ValueError(
                f"max_message_bytes must be >= 1024, got {max_message_bytes}"
            )
        self.broker = broker
        self.max_message_bytes = int(max_message_bytes)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        # Bind eagerly (SO_REUSEADDR, like the old socketserver front end,
        # so a restarted broker can take over a TIME_WAIT port) and hand the
        # listening socket to the event loop later.
        self._socket: Optional[socket.socket] = socket.create_server(
            (host, port), family=family, backlog=128
        )
        self._address = self._socket.getsockname()[:2]
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._stop_requested = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._address
        return str(host), int(port)

    # ------------------------------------------------------------ lifecycle
    def serve_forever(self) -> None:
        """Serve until :meth:`stop`, or until :data:`SHUTDOWN_GRACE_SECONDS`
        after a ``shutdown`` op (CLI entry point)."""
        try:
            asyncio.run(self._serve())
        finally:
            self._close_socket()

    def start(self) -> "BrokerServer":
        """Serve on a background thread (test/fixture entry point)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop_requested.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._signal_stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._close_socket()

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _signal_stop(self) -> None:
        if self._stop_async is not None:
            self._stop_async.set()

    def _close_socket(self) -> None:
        sock, self._socket = self._socket, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        if self._stop_requested.is_set():
            self._stop_async.set()
        sock, self._socket = self._socket, None
        server = await asyncio.start_server(
            self._handle_connection,
            sock=sock,
            # +2 so a frame of exactly max_message_bytes (newline included)
            # never trips the stream limit before our own length check.
            limit=self.max_message_bytes + 2,
        )
        try:
            async with server:
                await self._stop_async.wait()
        finally:
            self._loop = None

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve requests until the peer disconnects."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Stream-limit overrun: the peer sent a line longer than
                    # the frame cap.  Answer with the typed error, then drop
                    # the (now desynchronized) connection.
                    self.broker.count_code(ERR_FRAME_TOO_LARGE)
                    await self._reply(
                        writer,
                        {
                            "ok": False,
                            "error": (
                                f"message exceeds the {self.max_message_bytes}"
                                "-byte frame cap"
                            ),
                            "code": ERR_FRAME_TOO_LARGE,
                            "protocol": PROTOCOL,
                        },
                    )
                    return
                except (ConnectionError, OSError):
                    return
                if not line:
                    return
                try:
                    message = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    return  # malformed framing: drop the connection
                if not isinstance(message, dict):
                    return
                response = await asyncio.to_thread(self._dispatch, message)
                response["protocol"] = PROTOCOL
                try:
                    await self._reply(writer, response)
                except (ConnectionError, OSError):
                    return
                if message.get("op") == "shutdown" and response["ok"]:
                    # Keep answering through the grace window, so polling
                    # workers lease a shutdown notice; asyncio.run then
                    # tears down the open handlers.
                    asyncio.get_running_loop().call_later(
                        SHUTDOWN_GRACE_SECONDS, self._signal_stop
                    )
                    return
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _reply(
        self, writer: asyncio.StreamWriter, response: Dict[str, Any]
    ) -> None:
        writer.write(encode_message(response))
        await writer.drain()

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Route one request; fields an op does not read are ignored."""
        broker = self.broker
        op = message.get("op")
        if message.get("protocol") != PROTOCOL:
            broker.count_code(ERR_UNSUPPORTED_PROTOCOL)
            return {
                "ok": False,
                "error": (
                    f"unsupported protocol {message.get('protocol')!r}; this "
                    f"broker speaks {PROTOCOL!r} only"
                ),
                "code": ERR_UNSUPPORTED_PROTOCOL,
            }
        try:
            if op == "submit":
                body = broker.submit(message.get("specs", []))
            elif op == "lease":
                body = broker.lease(str(message.get("worker", "?")))
            elif op == "heartbeat":
                body = broker.heartbeat(
                    str(message.get("worker", "?")), str(message.get("key", ""))
                )
            elif op == "release":
                body = broker.release(
                    str(message.get("worker", "?")),
                    str(message.get("key", "")),
                    str(message.get("error", "")),
                )
            elif op == "result":
                # The digest is computed on the decompressed payload.  An
                # upload without ``payload_gz`` reaches ingest as ``None``
                # (a bad payload); a corrupt blob rejects with its own
                # transport reason.
                payload = None
                transport_error = None
                if message.get("payload_gz") is not None:
                    try:
                        payload = decompress_payload(str(message["payload_gz"]))
                    except ProtocolError as exc:
                        transport_error = str(exc)
                body = broker.ingest(
                    str(message.get("worker", "?")),
                    str(message.get("key", "")),
                    str(message.get("sha256", "")),
                    payload,
                    transport_error=transport_error,
                )
            elif op == "fetch":
                body = self._dispatch_fetch(message)
            elif op == "fetch_chunk":
                body = self._dispatch_fetch_chunk(message)
            elif op == "status":
                body = broker.status()
            elif op == "shutdown":
                body = broker.shutdown()
            else:
                broker.count_code(ERR_UNKNOWN_OP)
                return {
                    "ok": False,
                    "error": f"unknown op {op!r}",
                    "code": ERR_UNKNOWN_OP,
                }
        except Exception as exc:
            broker.count_code(ERR_BAD_REQUEST)
            return {"ok": False, "error": f"{op}: {exc}", "code": ERR_BAD_REQUEST}
        if isinstance(body, dict) and body.get("ok") is False:
            return body  # already a typed rejection
        return dict(body, ok=True)

    def _dispatch_fetch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """``fetch`` encoded for the wire: ``results_gz`` plus ``chunked``.

        Payloads travel as base64-gzip blobs, inlined -- in key order --
        until the next one would push the response past the requester's
        ``max_frame_bytes`` budget (half this server's frame cap when it
        names none).  The rest are announced in ``chunked`` (key -> encoded
        byte size) for the client to stream with ``fetch_chunk``.
        """
        body = self.broker.fetch(
            [str(key) for key in message.get("keys", [])]
        )
        budget = message.get("max_frame_bytes")
        budget = self.max_message_bytes // 2 if budget is None else int(budget)
        inline: Dict[str, str] = {}
        chunked: Dict[str, int] = {}
        spent = 0
        for key, payload in sorted(body.pop("results").items()):
            blob = compress_payload(payload)
            if spent + len(blob) > budget:
                # Over budget (or a single payload alone exceeding it): the
                # client streams this one with fetch_chunk instead.
                chunked[key] = len(blob)
                continue
            inline[key] = blob
            spent += len(blob)
        return dict(body, results_gz=inline, chunked=chunked)

    def _dispatch_fetch_chunk(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One bounded slice of a completed payload's base64-gzip encoding.

        The encoding is deterministic (``compress_payload`` pins
        ``mtime=0``), so slicing a fresh recompression on every call is
        stateless yet byte-stable across calls, workers and restarts.
        """
        key = str(message.get("key", ""))
        offset = int(message.get("offset", 0))
        max_bytes = int(message.get("max_bytes", DEFAULT_CHUNK_BYTES))
        payload = self.broker.fetch_payload(key)
        if payload is None:
            self.broker.count_code(ERR_UNKNOWN_KEY)
            return {
                "ok": False,
                "error": f"no completed payload for key {key!r}",
                "code": ERR_UNKNOWN_KEY,
            }
        blob = compress_payload(payload)
        if offset < 0 or offset > len(blob):
            self.broker.count_code(ERR_BAD_REQUEST)
            return {
                "ok": False,
                "error": f"chunk offset {offset} out of range (0..{len(blob)})",
                "code": ERR_BAD_REQUEST,
            }
        # Leave generous headroom for the JSON envelope around the slice.
        max_bytes = max(1, min(max_bytes, self.max_message_bytes // 2))
        data = blob[offset : offset + max_bytes]
        return {
            "key": key,
            "offset": offset,
            "data": data,
            "total_bytes": len(blob),
            "eof": offset + len(data) >= len(blob),
        }

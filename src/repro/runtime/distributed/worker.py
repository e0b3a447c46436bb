"""Pull-based worker: lease a spec, simulate it, upload the digested result.

A worker is stateless and interchangeable: it rebuilds graph and machine
from the canonical spec (exactly like a process-pool worker), so any worker
can run any spec, and killing one mid-run only costs the lease timeout.
While simulating, a background thread heartbeats the broker so long runs
keep their lease; if the executor raises, the worker *releases* the spec so
the broker requeues it immediately instead of waiting for expiry.

Workers ride out broker restarts: transport errors back off and retry until
``connect_patience`` seconds pass without reaching a broker, then the worker
exits cleanly (a supervisor -- or the CI smoke script -- restarts it).  A
broker that shuts down answers leases with ``shutdown`` for a short grace
window, so an idle worker exits at its next poll.

``capacity > 1`` runs that many lease/execute/upload loops concurrently in
one process (``dalorex worker --capacity N``): each loop holds its own lease
and heartbeat, simulations share the per-process graph memo, and the broker
sees N independent leases from one ``worker_id``.  ``stop()``, ``max_runs``
and the shared counters apply across all loops.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.runtime.backends import execute_to_payload
from repro.runtime.cache import payload_digest
from repro.runtime.distributed.protocol import (
    ProtocolError,
    compress_payload,
    request,
)
from repro.runtime.spec import RunSpec
from repro.telemetry import get_telemetry

def execute_canonical(canonical: Dict[str, Any]) -> Dict[str, Any]:
    """Default executor: canonical spec dict -> result payload."""
    _key, payload = execute_to_payload(RunSpec.from_canonical(canonical))
    return payload


class Worker:
    """One pull-based execution loop against a broker.

    Args:
        address: broker ``(host, port)``.
        worker_id: stable identity in leases and logs (default: host+pid).
        poll_interval: sleep between polls of an empty queue.
        max_runs: exit after this many accepted results (None = unbounded).
        connect_patience: seconds of consecutive connection failures
            tolerated before giving up (rides out broker restarts).
        executor: canonical-spec -> payload function (tests inject crashy or
            poisoned ones).
        log: progress sink, e.g. ``print`` (default: silent).
        capacity: concurrent leases this worker holds and executes (>= 1).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
        max_runs: Optional[int] = None,
        connect_patience: float = 30.0,
        executor: Callable[[Dict[str, Any]], Dict[str, Any]] = execute_canonical,
        log: Optional[Callable[[str], None]] = None,
        capacity: int = 1,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.address = address
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = max(0.01, float(poll_interval))
        self.max_runs = max_runs
        self.connect_patience = float(connect_patience)
        self.executor = executor
        self.capacity = int(capacity)
        #: How long to wait for the heartbeat thread after a run finishes.
        #: A thread still alive past this (a heartbeat blocked in a dead TCP
        #: connection) is left behind *with a warning* -- it is daemonized
        #: and self-terminates once its request times out, but a silent leak
        #: used to hide brokers with pathological connection behavior.
        self.heartbeat_join_timeout = 5.0
        self.leaked_heartbeats = 0
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.leases = 0
        self.uploads = 0
        self.telemetry = get_telemetry()
        self._log = log or (lambda message: None)
        self._stop = threading.Event()
        # Counter updates come from multiple lease loops when capacity > 1.
        self._counter_lock = threading.Lock()
        # Run slots claimed toward max_runs (a loop claims before leasing and
        # releases on a non-accepted outcome, so concurrent loops never
        # overshoot the accepted-results budget).
        self._claimed_runs = 0

    def stop(self) -> None:
        """Ask the loop(s) to exit after the current spec (thread-safe)."""
        self._stop.set()

    def stats(self) -> Dict[str, int]:
        """Worker-side counters, printed by the CLI at exit."""
        with self._counter_lock:
            return {
                "completed": self.completed,
                "rejected": self.rejected,
                "errors": self.errors,
                "leases": self.leases,
                "uploads": self.uploads,
                "leaked_heartbeats": self.leaked_heartbeats,
            }

    def _count(self, field: str) -> int:
        """Increment one shared counter; returns the new value."""
        with self._counter_lock:
            value = getattr(self, field) + 1
            setattr(self, field, value)
            return value

    def _claim_run_slot(self) -> bool:
        """Reserve one accepted-result slot toward ``max_runs``.

        False means the budget is exhausted (counting runs in flight on
        other loops) and the calling loop should exit.
        """
        if self.max_runs is None:
            return True
        with self._counter_lock:
            if self._claimed_runs >= self.max_runs:
                return False
            self._claimed_runs += 1
            return True

    def _release_run_slot(self) -> None:
        """Return a claimed slot (lease yielded no work, or not accepted)."""
        if self.max_runs is None:
            return
        with self._counter_lock:
            self._claimed_runs -= 1

    # ------------------------------------------------------------------ loop
    def run(self) -> int:
        """Pull work until shutdown/stop/max_runs; returns accepted count.

        With ``capacity > 1``, runs that many lease loops on daemon threads
        and joins them; each loop leases, executes and uploads independently.
        """
        if self.capacity == 1:
            self._lease_loop()
            return self.completed
        loops = [
            threading.Thread(target=self._lease_loop, name=f"lease-{i}", daemon=True)
            for i in range(self.capacity)
        ]
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join()
        return self.completed

    def _lease_loop(self) -> None:
        """One lease/execute/upload loop (a worker runs ``capacity`` of these)."""
        last_contact = time.monotonic()
        while not self._stop.is_set():
            if not self._claim_run_slot():
                # Budget fully claimed.  Runs still in flight on other loops
                # may yet fail and release their slot, so wait rather than
                # exit; the loop that lands the final accept sets _stop.
                if self.max_runs is not None and self.completed >= self.max_runs:
                    self._stop.set()
                    break
                time.sleep(self.poll_interval)
                continue
            try:
                lease_request = {"op": "lease", "worker": self.worker_id}
                with self.telemetry.span("worker.lease"):
                    lease = request(self.address, lease_request)
            except (OSError, ProtocolError) as exc:
                self._release_run_slot()
                if time.monotonic() - last_contact > self.connect_patience:
                    self._log(f"[{self.worker_id}] giving up on broker: {exc}")
                    break
                time.sleep(self.poll_interval)
                continue
            last_contact = time.monotonic()
            if lease.get("shutdown"):
                self._release_run_slot()
                self._log(f"[{self.worker_id}] broker shut down; exiting")
                self._stop.set()
                break
            key = lease.get("key")
            if key is None:
                self._release_run_slot()
                time.sleep(self.poll_interval)
                continue
            self._count("leases")
            accepted = self._run_one(
                key, lease["spec"], float(lease.get("lease_timeout", 60.0))
            )
            if not accepted:
                self._release_run_slot()
            if self.max_runs is not None and self.completed >= self.max_runs:
                self._stop.set()
                break

    def _run_one(
        self, key: str, canonical: Dict[str, Any], lease_timeout: float
    ) -> bool:
        """Execute one leased spec; True when the upload was accepted."""
        stop_beat = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(key, lease_timeout, stop_beat),
            daemon=True,
        )
        beat.start()
        telemetry = self.telemetry
        try:
            with telemetry.scope(spec=key[:12], worker=self.worker_id):
                with telemetry.span("worker.execute"):
                    payload = self.executor(canonical)
        except Exception as exc:
            self._count("errors")
            self._log(f"[{self.worker_id}] {key[:12]} failed: {exc}")
            self._send_quietly(
                {"op": "release", "worker": self.worker_id, "key": key,
                 "error": f"worker executor raised: {exc}"}
            )
            return False
        finally:
            stop_beat.set()
            beat.join(timeout=self.heartbeat_join_timeout)
            if beat.is_alive():
                self._count("leaked_heartbeats")
                self._log(
                    f"[{self.worker_id}] heartbeat thread for {key[:12]} did "
                    f"not exit within {self.heartbeat_join_timeout:.1f}s; "
                    "leaving it to finish in the background"
                )
        self._count("uploads")
        with telemetry.scope(spec=key[:12], worker=self.worker_id):
            with telemetry.span("worker.upload"):
                response = self._upload(key, payload)
        if response is None:
            # The upload never reached the broker; the lease will expire and
            # another worker (or this one, next lease) re-runs the spec.
            self._count("errors")
            return False
        if response.get("accepted"):
            self._count("completed")
            self._log(f"[{self.worker_id}] completed {key[:12]}")
            return True
        self._count("rejected")
        code = response.get("code")
        self._log(
            f"[{self.worker_id}] upload rejected for {key[:12]}"
            + (f" [{code}]" if code else "")
            + f": {response.get('reason')}"
        )
        return False

    def _upload(self, key: str, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Send one result as ``payload_gz``; ``None`` on transport failure.

        The digest covers the decompressed payload, which is what the broker
        verifies.
        """
        return self._send_quietly(
            {
                "op": "result",
                "worker": self.worker_id,
                "key": key,
                "sha256": payload_digest(payload),
                "payload_gz": compress_payload(payload),
            }
        )

    def _heartbeat_loop(
        self, key: str, lease_timeout: float, stop: threading.Event
    ) -> None:
        """Renew the lease at 3x the rate it expires; stop if it was lost."""
        interval = max(0.05, lease_timeout / 3.0)
        while not stop.wait(interval):
            response = self._send_quietly(
                {"op": "heartbeat", "worker": self.worker_id, "key": key}
            )
            if response is not None and not response.get("active", False):
                return  # lease reassigned; the eventual upload still counts once

    def _send_quietly(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Best-effort request: None instead of raising on transport errors."""
        try:
            return request(self.address, message)
        except (OSError, ProtocolError):
            return None

"""Execution backends: how a batch of cache-miss specs actually runs.

:class:`~repro.runtime.runner.ExperimentRunner` owns *what* to run (dedup,
cache, memo, result ordering); a :class:`RunnerBackend` owns *where* it runs.
Three implementations share one interface:

* :class:`InlineBackend` -- serially, in the calling process;
* :class:`ProcessPoolBackend` -- over a persistent ``ProcessPoolExecutor``
  (the historical ``jobs=N`` path);
* :class:`~repro.runtime.distributed.client.DistributedBackend` -- over a
  broker/worker fleet on other machines (see
  :mod:`repro.runtime.distributed`).

Every backend consumes specs (already cost-ordered, costliest first) and
yields ``(key, payload)`` pairs *as results land*, in completion order -- the
runner streams each one into the cache immediately, which is what makes long
sweeps resumable whatever the backend.  Payloads always pass through the same
JSON serialization, so results are bit-identical across backends.
"""

from __future__ import annotations

import abc
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    as_completed,
)
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.runtime.serialize import result_to_payload
from repro.runtime.spec import RunSpec, execute_spec
from repro.telemetry import get_telemetry


def execute_to_payload(spec: RunSpec) -> Tuple[str, Dict[str, Any]]:
    """Execution entry point: run one spec and return ``(key, payload)``.

    This is what worker processes (and remote workers) run; it is the single
    definition of how a spec becomes a payload, whatever the backend.  It is
    also the one place the execute/serialize spans are written -- every
    backend (inline, pool worker, fleet worker) routes through here.
    """
    telemetry = get_telemetry()
    key = spec.key()
    with telemetry.scope(spec=key[:12], app=spec.app, dataset=spec.dataset):
        with telemetry.span("runtime.execute", app=spec.app):
            result = execute_spec(spec)
        with telemetry.span("runtime.serialize"):
            payload = result_to_payload(result)
    return key, payload


class RunnerBackend(abc.ABC):
    """Strategy interface: execute pending specs, stream back payloads."""

    #: Short name used by ``--backend`` and in logs.
    name: str = "?"

    @abc.abstractmethod
    def execute(
        self, pending: Sequence[RunSpec]
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(key, payload)`` for every spec, in completion order.

        Implementations must keep yielding completed work even when a later
        spec fails, and raise the first failure only after draining what
        finished -- the runner caches each yielded payload immediately.
        """

    def close(self) -> None:
        """Release resources (idempotent; the backend stays reusable)."""


class InlineBackend(RunnerBackend):
    """Serial in-process execution (the ``jobs=1`` path)."""

    name = "inline"

    def execute(
        self, pending: Sequence[RunSpec]
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        for spec in pending:
            yield execute_to_payload(spec)


class ProcessPoolBackend(RunnerBackend):
    """Fan-out over a persistent ``ProcessPoolExecutor`` on this host.

    Workers rebuild graph and machine from the spec, so only the (picklable)
    spec and the JSON payload cross process boundaries.  Batches of one spec
    run inline: a pool round-trip would only add overhead.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the next parallel batch
        starts a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _terminate_pool(self) -> None:
        """Tear the pool down without waiting for in-flight simulations."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Snapshot before shutdown(): the executor nulls _processes there.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except OSError:
                pass

    def execute(
        self, pending: Sequence[RunSpec]
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        if not pending:
            return
        if self.jobs <= 1 or len(pending) <= 1:
            for spec in pending:
                yield execute_to_payload(spec)
            return
        # One lazily-created pool serves every batch of this backend, so
        # worker-process graph memos survive across figures of a sweep.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        # as_completed (not pool.map) so a finished simulation reaches the
        # caller -- and the cache -- even while an earlier, slower
        # submission is still running.  On a failure, queued work is
        # cancelled but already-running simulations are still drained into
        # the cache before the first error propagates, so one bad point
        # never throws away its siblings' completed work.
        futures = [self._pool.submit(execute_to_payload, spec) for spec in pending]
        failure: Optional[Exception] = None
        try:
            for future in as_completed(futures):
                try:
                    yield future.result()
                except CancelledError:
                    continue  # queued work cancelled after the first failure
                except Exception as exc:
                    if failure is None:
                        failure = exc
                        for other in futures:
                            other.cancel()
        except BaseException:
            # KeyboardInterrupt (typically raised inside as_completed's
            # wait) and friends: stop immediately instead of draining
            # in-flight work -- resumability is for spec failures, not
            # for the operator's Ctrl-C.  Workers are terminated
            # outright; otherwise the executor's atexit hook would block
            # process exit until every in-flight simulation finished.
            for other in futures:
                other.cancel()
            self._terminate_pool()
            raise
        if failure is not None:
            if isinstance(failure, BrokenExecutor):
                # A dead worker poisons the whole pool; drop it so the
                # backend stays usable (the next batch re-pools).
                self._terminate_pool()
            raise failure


def resolve_backend(
    name: Optional[str],
    jobs: int = 1,
    connect: Optional[str] = None,
) -> RunnerBackend:
    """Build the backend a ``--backend`` flag describes.

    ``None`` (or ``"auto"``) keeps the historical behavior: inline for
    ``jobs=1``, a process pool otherwise.  ``"distributed"`` requires a
    broker address (``host:port``).
    """
    if name in (None, "auto"):
        name = "inline" if jobs <= 1 else "process"
    if name == "inline":
        return InlineBackend()
    if name == "process":
        return ProcessPoolBackend(jobs)
    if name == "distributed":
        if not connect:
            raise ValueError(
                "the distributed backend needs a broker address (--connect HOST:PORT)"
            )
        from repro.runtime.distributed.client import DistributedBackend
        from repro.runtime.distributed.protocol import parse_address

        return DistributedBackend(parse_address(connect))
    raise ValueError(
        f"unknown backend {name!r}; choose from auto, inline, process, distributed"
    )


#: Names accepted by ``--backend`` (``auto`` defers to ``--jobs``).
BACKEND_CHOICES = ("auto", "inline", "process", "distributed")

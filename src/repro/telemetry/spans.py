"""Span and event records: what one process writes for ``dalorex trace``.

:class:`Telemetry` writes one record per closed span or emitted event to its
sink; :class:`NullTelemetry` is the shared switched-off twin.  Every
instrumented site is one ``with telemetry.span(...)`` block: switched off,
``span`` and ``scope`` return one shared no-op context, so the off path is
a single call.

A span record names the span that encloses it on the same thread
(``parent``), carries its duration (``dur_s``) and its ``labels``, and,
like every record, the correlation context of the enclosing
:meth:`Telemetry.scope` blocks (``ctx``).  Span nesting and scope state are
``threading.local``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List

__all__ = ["NULL", "NullTelemetry", "Telemetry"]


class _ThreadState(threading.local):
    """Per-thread span nesting stack and correlation context."""

    def __init__(self):
        self.span_stack: List[str] = []
        self.context: Dict[str, Any] = {}


class Telemetry:
    """Writes span and event records to ``sink``.

    ``sink`` exposes ``write(record: dict)`` and ``close()`` (see
    :class:`~repro.telemetry.sink.JsonlSink`).  ``clock`` times spans; it
    is injectable for deterministic tests and defaults to
    ``time.perf_counter``.
    """

    def __init__(self, sink, clock: Callable[[], float] = time.perf_counter):
        self._sink = sink
        self._clock = clock
        self._local = _ThreadState()

    @contextmanager
    def span(self, name: str, **labels) -> Iterator[None]:
        """Time a block and write one ``span`` record as it closes, also
        when the block raises."""
        stack = self._local.span_stack
        parent = stack[-1] if stack else None
        stack.append(name)
        start = self._clock()
        try:
            yield
        finally:
            duration = self._clock() - start
            stack.pop()
            self.emit("span", name=name, dur_s=duration, parent=parent,
                      labels=labels or None)

    @contextmanager
    def scope(self, **context) -> Iterator[None]:
        """Attach correlation context (spec key, worker id, ...) to every
        record this thread writes while the scope is active."""
        local = self._local
        previous = local.context
        merged = dict(previous)
        merged.update((k, v) for k, v in context.items() if v is not None)
        local.context = merged
        try:
            yield
        finally:
            local.context = previous

    def emit(self, kind: str, **fields) -> None:
        """Write one record; fields that are ``None`` are left out."""
        record: Dict[str, Any] = {"ts": round(time.time(), 6), "kind": kind}
        context = self._local.context
        if context:
            record["ctx"] = dict(context)
        for field, value in fields.items():
            if value is not None:
                record[field] = value
        self._sink.write(record)

    def close(self) -> None:
        self._sink.close()


#: The no-op context every switched-off span and scope shares.
_NULL_CONTEXT = nullcontext()


class NullTelemetry:
    """Telemetry switched off: the recording API as no-ops."""

    def span(self, name, **labels):
        return _NULL_CONTEXT

    def scope(self, **context):
        return _NULL_CONTEXT

    def emit(self, kind, **fields):
        pass

    def close(self):
        pass


#: The shared switched-off singleton; ``get_telemetry()`` returns this
#: unless ``DALOREX_TELEMETRY_JSONL`` names a file.
NULL = NullTelemetry()

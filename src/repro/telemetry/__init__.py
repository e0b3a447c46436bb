"""Telemetry: span and event records, streamed to one JSONL file.

``DALOREX_TELEMETRY_JSONL=<path>`` is the one switch.  Set, each process
appends one JSON record per closed span or emitted event to ``<path>``, and
``dalorex trace`` reads those files back.  Process-pool workers inherit the
environment, so one variable instruments a whole local run; the broker and
each fleet worker read their own.  Unset (the default), :func:`get_telemetry`
returns the shared :data:`NULL`, and an instrumented site costs one call
that returns a shared no-op context::

    with telemetry.span("engine.analytic.segment", task="T3_relax"):
        ...

Telemetry NEVER influences simulation behavior -- outputs are byte-identical
with and without a sink, and the determinism suite
(``tests/telemetry/test_determinism.py``) enforces that.  Tests install
telemetry with :func:`telemetry_session`.  See ``docs/OBSERVABILITY.md``
for the record fields and the span inventory.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.sink import JsonlSink
from repro.telemetry.spans import NULL, NullTelemetry, Telemetry
from repro.telemetry.trace import (
    aggregate_spans,
    format_trace_report,
    load_many,
    load_records,
)

__all__ = [
    "JsonlSink",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "aggregate_spans",
    "format_trace_report",
    "get_telemetry",
    "load_many",
    "load_records",
    "telemetry_session",
]

ENV_JSONL = "DALOREX_TELEMETRY_JSONL"

_lock = threading.Lock()
_active = None  # None = not yet configured; resolved lazily from the env.


def _from_env():
    path = os.environ.get(ENV_JSONL, "").strip()
    return Telemetry(JsonlSink(path=path)) if path else NULL


def get_telemetry():
    """The process-wide telemetry (lazily resolved from the environment)."""
    global _active
    telemetry = _active
    if telemetry is None:
        with _lock:
            if _active is None:
                _active = _from_env()
            telemetry = _active
    return telemetry


@contextmanager
def telemetry_session(telemetry) -> Iterator:
    """Install ``telemetry`` (a Telemetry or NullTelemetry) for the block,
    then restore the previous one and close this one.

    Code that cached ``get_telemetry()`` at construction time (the engines,
    brokers and workers do) keeps its reference; build it inside the block.
    """
    global _active
    with _lock:
        previous = _active
        _active = telemetry
    try:
        yield telemetry
    finally:
        with _lock:
            _active = previous
        telemetry.close()

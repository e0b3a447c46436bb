"""Unified telemetry: in-process metrics, spans and a JSONL span stream.

The one rule every instrumented site follows::

    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("engine.cycle.events", kind="deliver")

Disabled (the default), :func:`get_telemetry` returns the shared
:data:`~repro.telemetry.registry.NULL` singleton and the guard costs one
attribute check.  Telemetry NEVER influences simulation behavior -- outputs
are byte-identical with it on, off, or streaming to a JSONL sink, and the
determinism suite (``tests/telemetry/test_determinism.py``) enforces that.

Activation:

* ``DALOREX_TELEMETRY=1`` -- enable in-process aggregation;
* ``DALOREX_TELEMETRY_JSONL=<path>`` -- also stream span/event records to
  ``<path>`` (implies enabled).  Process-pool workers inherit the
  environment, so one variable instruments a whole local run; the broker
  and each fleet worker read their own.
* :func:`set_telemetry` -- programmatic control (tests install scoped
  registries via :func:`telemetry_session`).

See ``docs/OBSERVABILITY.md`` for the metric naming scheme and the
``dalorex trace`` span table.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry.registry import (
    DEFAULT_COUNT_EDGES,
    DEFAULT_TIME_EDGES,
    NULL,
    Histogram,
    NullTelemetry,
    Telemetry,
)
from repro.telemetry.sink import ENV_JSONL_MAX_BYTES, JsonlSink
from repro.telemetry.trace import (
    aggregate_spans,
    format_trace_report,
    load_many,
    load_records,
)

__all__ = [
    "DEFAULT_COUNT_EDGES",
    "DEFAULT_TIME_EDGES",
    "ENV_JSONL_MAX_BYTES",
    "Histogram",
    "JsonlSink",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "aggregate_spans",
    "format_trace_report",
    "get_telemetry",
    "load_many",
    "load_records",
    "set_telemetry",
    "telemetry_session",
]

ENV_ENABLE = "DALOREX_TELEMETRY"
ENV_JSONL = "DALOREX_TELEMETRY_JSONL"

_TRUTHY = {"1", "true", "yes", "on"}

_lock = threading.Lock()
_active = None  # None = not yet configured; resolved lazily from the env.


def _from_env():
    jsonl = os.environ.get(ENV_JSONL, "").strip() or None
    enabled = os.environ.get(ENV_ENABLE, "").strip().lower() in _TRUTHY
    if jsonl is None and not enabled:
        return NULL
    sink = JsonlSink(path=jsonl) if jsonl else None
    return Telemetry(sink=sink)


def get_telemetry():
    """The process-wide registry (lazily resolved from the environment)."""
    global _active
    telemetry = _active
    if telemetry is None:
        with _lock:
            if _active is None:
                _active = _from_env()
            telemetry = _active
    return telemetry


def set_telemetry(telemetry) -> None:
    """Install ``telemetry`` (a Telemetry or NullTelemetry) process-wide.

    Note: code that cached ``get_telemetry()`` at construction time (the
    engines, brokers and workers do) keeps its reference; install before
    building them.
    """
    global _active
    with _lock:
        _active = telemetry if telemetry is not None else NULL


@contextmanager
def telemetry_session(telemetry=None, jsonl: Optional[str] = None) -> Iterator:
    """Scoped registry install for tests; restores the previous one."""
    if telemetry is None:
        telemetry = Telemetry(sink=JsonlSink(path=jsonl) if jsonl else None)
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

"""JSON-lines event sink for telemetry spans and events.

One record per line, each written with a single ``write()`` call on a file
opened in append mode -- on POSIX that makes concurrent writers (e.g. the
process-pool backend's worker processes, which inherit the telemetry
environment) interleave whole lines rather than corrupt each other.  Every
record carries the writing ``pid`` so multi-process traces stay
attributable.

Records are plain JSON objects with at least ``ts`` (unix seconds) and
``kind`` (``"span"``, ``"event"``); span records add ``name``, ``dur_s``,
``parent``, ``span_id``/``parent_id`` and optional ``labels`` / ``ctx``
(see :mod:`repro.telemetry.registry`).

Path-backed sinks may be size-bounded: pass ``max_bytes`` (or set
``DALOREX_TELEMETRY_JSONL_MAX_BYTES``) and the sink performs one
deterministic rotation -- the moment a record would push the file past the
bound, the current file moves to ``<path>.1`` (replacing any previous
rotation) and writing restarts on a fresh ``<path>``.  Long soaks therefore
keep at most ``2 * max_bytes`` of trace on disk while always retaining the
most recent records.
"""

from __future__ import annotations

import io
import json
import os
import threading
from typing import Any, Dict, Optional, TextIO

__all__ = ["ENV_JSONL_MAX_BYTES", "JsonlSink"]

ENV_JSONL_MAX_BYTES = "DALOREX_TELEMETRY_JSONL_MAX_BYTES"


def _max_bytes_from_env() -> Optional[int]:
    raw = os.environ.get(ENV_JSONL_MAX_BYTES, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class JsonlSink:
    """Append-only JSONL writer; thread-safe, line-at-a-time, flushed."""

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[TextIO] = None,
        max_bytes: Optional[int] = None,
    ):
        if (path is None) == (stream is None):
            raise ValueError("JsonlSink needs exactly one of path= or stream=")
        self._lock = threading.Lock()
        self._owns_stream = stream is None
        self._bytes = 0
        if stream is not None:
            self._stream: Optional[TextIO] = stream
            self.path = getattr(stream, "name", None)
            self.max_bytes = None  # rotation needs a real path
        else:
            self.path = os.fspath(path)
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._stream = open(self.path, "a", encoding="utf-8")
            self.max_bytes = max_bytes if max_bytes else _max_bytes_from_env()
            try:
                self._bytes = os.path.getsize(self.path)
            except OSError:
                self._bytes = 0
        self._pid = os.getpid()

    def _rotate_locked(self) -> None:
        """Move the full file to ``<path>.1`` and reopen a fresh one."""
        stream = self._stream
        try:
            if stream is not None:
                stream.close()
            os.replace(self.path, self.path + ".1")
            self._stream = open(self.path, "a", encoding="utf-8")
            self._bytes = 0
        except (ValueError, OSError):
            self._stream = None

    def write(self, record: Dict[str, Any]) -> None:
        if self._stream is None:
            return
        payload = dict(record)
        payload.setdefault("pid", self._pid)
        line = json.dumps(payload, separators=(",", ":"), sort_keys=True, default=str)
        data = line + "\n"
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            if (
                self.max_bytes is not None
                and self._bytes > 0
                and self._bytes + len(data) > self.max_bytes
            ):
                self._rotate_locked()
                stream = self._stream
                if stream is None:
                    return
            try:
                stream.write(data)
                stream.flush()
                self._bytes += len(data)
            except (ValueError, OSError):
                # A closed or failing sink must never take the workload down.
                self._stream = None

    def close(self) -> None:
        with self._lock:
            stream, self._stream = self._stream, None
        if stream is not None and self._owns_stream:
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_memory_sink() -> "JsonlSink":
    """A sink backed by an in-memory buffer (tests)."""
    return JsonlSink(stream=io.StringIO())

"""JSON-lines sink for telemetry span and event records.

One record per line, each written with a single ``write()`` call on a file
opened in append mode -- on POSIX that makes concurrent writers (e.g. the
process-pool backend's worker processes, which inherit the telemetry
environment) interleave whole lines rather than corrupt each other.  Every
record carries the ``pid`` of the process that wrote it, so multi-process
traces stay attributable.

Records are plain JSON objects with ``ts`` (unix seconds), ``kind``
(``"span"`` or ``"event"``) and ``pid``; span records add ``name``,
``dur_s`` and, when set, ``parent``, ``labels`` and ``ctx`` (see
:mod:`repro.telemetry.spans`).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional, TextIO

__all__ = ["JsonlSink"]


class JsonlSink:
    """Append-only JSONL writer; thread-safe, line-at-a-time, flushed."""

    def __init__(self, path: Optional[str] = None, stream: Optional[TextIO] = None):
        if (path is None) == (stream is None):
            raise ValueError("JsonlSink needs exactly one of path= or stream=")
        self._lock = threading.Lock()
        self._owns_stream = stream is None
        if stream is None:
            directory = os.path.dirname(os.fspath(path))
            if directory:
                os.makedirs(directory, exist_ok=True)
            stream = open(path, "a", encoding="utf-8")
        self._stream: Optional[TextIO] = stream

    def write(self, record: Dict[str, Any]) -> None:
        # The pid is read per record: a pool worker forked after this sink
        # was built writes through the parent's sink under its own pid.
        line = json.dumps({**record, "pid": os.getpid()}, separators=(",", ":"),
                          sort_keys=True, default=str)
        with self._lock:
            stream = self._stream
            if stream is None:
                return
            try:
                stream.write(line + "\n")
                stream.flush()
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

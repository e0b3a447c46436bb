"""Cross-process trace context: the identity a run carries between tiers.

A :class:`TraceContext` is two small strings: ``trace_id`` names one
submitted unit of work (one RunSpec in a sweep), and ``parent_id`` names
the span on the *sending* side that the receiving process's spans should
attach under.  The client mints one context per spec at submission; the
broker stores it with the queued task and echoes it on the lease; the
worker installs it around execution and returns it on the upload envelope.
Every JSONL record emitted while a context is installed carries its
``trace_id``, so `dalorex trace a.jsonl b.jsonl c.jsonl` can join records
from any number of processes into per-trace span trees.

The wire form is a plain JSON object (``{"trace": ..., "parent": ...}``),
an optional field of the protocol's messages: an untraced peer simply never
sends it, and malformed values decode to ``None`` rather than raise.
Contexts never enter the uploaded *payload* object itself -- payload bytes
(and their digests) stay byte-identical with telemetry on or off.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Immutable (trace_id, parent span id) pair, safe to share across threads."""

    trace_id: str
    parent_id: Optional[str] = None

    @staticmethod
    def mint() -> "TraceContext":
        """A fresh root context with a random 64-bit trace id."""
        return TraceContext(trace_id=uuid.uuid4().hex[:16])

    def child(self, parent_id: Optional[str]) -> "TraceContext":
        """Same trace, re-parented under ``parent_id`` (for hand-off points)."""
        return TraceContext(trace_id=self.trace_id, parent_id=parent_id)

    def to_wire(self) -> Dict[str, str]:
        """JSON-ready form for protocol messages and payload envelopes."""
        wire: Dict[str, str] = {"trace": self.trace_id}
        if self.parent_id:
            wire["parent"] = self.parent_id
        return wire

    @staticmethod
    def from_wire(wire: Any) -> Optional["TraceContext"]:
        """Decode a wire dict; tolerant of absent/garbage values (-> None)."""
        if not isinstance(wire, dict):
            return None
        trace_id = wire.get("trace")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = wire.get("parent")
        if not isinstance(parent, str) or not parent:
            parent = None
        return TraceContext(trace_id=trace_id, parent_id=parent)

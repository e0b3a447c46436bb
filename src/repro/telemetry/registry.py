"""Process-local metrics registry: counters, gauges, histograms, spans.

One :class:`Telemetry` instance aggregates everything a process observes;
:class:`NullTelemetry` is the shared disabled twin.  The contract that keeps
instrumentation free when observability is off:

* every hot call site guards with ``if telemetry.enabled:`` -- a single
  attribute load on a shared singleton, no allocation, no lock;
* the null object still implements the full recording API as no-ops, so
  cold paths (CLI glue, error handling) may skip the guard entirely.

Metric identity is ``(name, sorted(labels))``.  Names are dotted
(``engine.cycle.events``); labels must stay low-cardinality (an app name,
an event kind) -- RunSpec keys and other unbounded values belong in
the per-event JSONL context (:meth:`Telemetry.scope`), never in labels.

Histograms use fixed bucket edges chosen at first observation (callers may
pass explicit ``edges``); this keeps merge/exposition deterministic and
makes quantile estimates reproducible across runs.  Spans aggregate into a
histogram named ``span.<name>.seconds`` and, when a sink is attached, emit
one JSONL record each with their thread-local parent span, duration, labels
and correlation context.

Everything is thread-safe: aggregation takes a single registry lock, and
span/scope nesting state is ``threading.local``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_COUNT_EDGES",
    "DEFAULT_TIME_EDGES",
    "Histogram",
    "NULL",
    "NullTelemetry",
    "Telemetry",
]

#: Default edges for duration histograms (seconds): 1us .. ~100s, geometric.
DEFAULT_TIME_EDGES: Tuple[float, ...] = tuple(
    round(base * 10.0**exponent, 12)
    for exponent in range(-6, 2)
    for base in (1.0, 2.5, 5.0)
) + (100.0,)

#: Default edges for magnitude histograms (depths, sizes): powers of two.
DEFAULT_COUNT_EDGES: Tuple[float, ...] = tuple(float(2**i) for i in range(17))

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    """Canonical hashable identity of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """Fixed-edge histogram with exact count/sum and interpolated quantiles."""

    __slots__ = ("edges", "buckets", "count", "total", "minimum", "maximum")

    def __init__(self, edges: Sequence[float]):
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError(f"histogram edges must be strictly increasing: {edges!r}")
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        # buckets[i] counts observations <= edges[i]; the final slot is +Inf.
        self.buckets = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0..1) from the bucket counts.

        Linear interpolation inside the containing bucket, clamped to the
        exact observed min/max so single-observation histograms report the
        true value rather than a bucket edge.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        previous_edge = 0.0 if self.edges[0] > 0 else self.minimum
        for index, edge in enumerate(self.edges):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= rank and in_bucket > 0:
                fraction = (rank - cumulative) / in_bucket
                estimate = previous_edge + fraction * (edge - previous_edge)
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += in_bucket
            previous_edge = edge
        return self.maximum

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class _ThreadState(threading.local):
    """Per-thread span nesting stack and correlation context."""

    def __init__(self):
        self.span_stack = []  # entries: (name, span_id)
        self.context: Dict[str, Any] = {}


class Telemetry:
    """Enabled registry: aggregates metrics and (optionally) streams events.

    ``sink``, when given, must expose ``write(record: dict)`` (see
    :class:`~repro.telemetry.sink.JsonlSink`).  ``clock`` is injectable for
    deterministic tests and defaults to ``time.perf_counter``.
    """

    enabled = True

    def __init__(self, sink=None, clock: Callable[[], float] = time.perf_counter):
        self._lock = threading.Lock()
        self._clock = clock
        self._sink = sink
        self._counters: Dict[Tuple[str, LabelsKey], int] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}
        self._local = _ThreadState()
        self._created = time.time()
        # Span ids are "<pid hex>-<random fragment>-<seq hex>": unique across
        # the processes of one run without any coordination, short enough to
        # stay cheap in JSONL records.
        self._span_token = f"{os.getpid():x}-{uuid.uuid4().hex[:6]}"
        self._span_seq = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: int = 1, **labels) -> None:
        """Add ``value`` to the counter ``name`` (monotonic)."""
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        key = (name, _labels_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self, name: str, value: float, edges: Optional[Sequence[float]] = None, **labels
    ) -> None:
        """Record ``value`` into the histogram ``name``.

        The first observation fixes the bucket edges (``edges`` or
        :data:`DEFAULT_COUNT_EDGES`); later ``edges`` arguments are ignored
        so concurrent observers cannot disagree about the layout.
        """
        key = (name, _labels_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(edges if edges is not None else DEFAULT_COUNT_EDGES)
                self._histograms[key] = histogram
            histogram.observe(value)

    @contextmanager
    def span(self, name: str, **labels) -> Iterator[None]:
        """Time a block: aggregates into ``span.<name>.seconds`` + JSONL.

        Spans nest per thread; each emitted event carries the name of its
        enclosing span (``parent``) for in-process call trees plus a unique
        ``span_id`` / ``parent_id`` pair.
        """
        stack = self._local.span_stack
        parent_name, parent_id = stack[-1] if stack else (None, None)
        span_id = f"{self._span_token}-{next(self._span_seq):x}"
        stack.append((name, span_id))
        start = self._clock()
        try:
            yield
        finally:
            duration = self._clock() - start
            stack.pop()
            self.observe(
                f"span.{name}.seconds", duration, edges=DEFAULT_TIME_EDGES, **labels
            )
            if self._sink is not None:
                self.emit(
                    "span",
                    name=name,
                    dur_s=duration,
                    parent=parent_name,
                    span_id=span_id,
                    parent_id=parent_id,
                    labels=labels or None,
                )

    @contextmanager
    def scope(self, **context) -> Iterator[None]:
        """Attach correlation context (spec key, worker id, ...).

        Context flows into every JSONL record emitted by this thread while
        the scope is active.  It never labels aggregated metrics -- that is
        what keeps spec keys (unbounded cardinality) affordable.
        """
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
        """Write one JSONL record (no-op without a sink)."""
        sink = self._sink
        if sink is None:
            return
        record: Dict[str, Any] = {"ts": round(time.time(), 6), "kind": kind}
        context = self._local.context
        if context:
            record["ctx"] = dict(context)
        for field, value in fields.items():
            if value is not None:
                record[field] = value
        sink.write(record)

    # -- introspection -----------------------------------------------------

    @property
    def sink(self):
        return self._sink

    def current_context(self) -> Dict[str, Any]:
        return dict(self._local.context)

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time copy of every aggregate, JSON-ready.

        Layout: ``{"counters": {name: {labels_repr: value}}, "gauges": ...,
        "histograms": {name: {labels_repr: histogram_dict}}}`` where
        ``labels_repr`` is ``"k=v,k2=v2"`` (empty string for no labels).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histogram_dicts = {
                key: histogram.to_dict() for key, histogram in self._histograms.items()
            }

        def regroup(flat: Dict[Tuple[str, LabelsKey], Any]) -> Dict[str, Dict[str, Any]]:
            grouped: Dict[str, Dict[str, Any]] = {}
            for (name, labels), value in sorted(flat.items()):
                label_repr = ",".join(f"{k}={v}" for k, v in labels)
                grouped.setdefault(name, {})[label_repr] = value
            return grouped

        return {
            "counters": regroup(counters),
            "gauges": regroup(gauges),
            "histograms": regroup(histogram_dicts),
            "created": self._created,
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


class _NullContext:
    """Reusable no-op context manager shared by every null span/scope."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """Disabled registry: the entire API as allocation-free no-ops.

    ``enabled`` is ``False``, so guarded hot paths skip instrumentation with
    one attribute check; unguarded cold paths pay only an empty call.
    """

    enabled = False
    sink = None

    def count(self, name, value=1, **labels):
        pass

    def gauge(self, name, value, **labels):
        pass

    def observe(self, name, value, edges=None, **labels):
        pass

    def span(self, name, **labels):
        return _NULL_CONTEXT

    def scope(self, **context):
        return _NULL_CONTEXT

    def emit(self, kind, **fields):
        pass

    def current_context(self):
        return {}

    def snapshot(self):
        return {"counters": {}, "gauges": {}, "histograms": {}, "created": None}

    def reset(self):
        pass

    def close(self):
        pass


#: The shared disabled singleton; ``get_telemetry()`` returns this unless
#: telemetry has been switched on for the process.
NULL = NullTelemetry()

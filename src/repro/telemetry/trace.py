"""Aggregate span reports from telemetry JSONL traces.

``dalorex trace <file>...`` loads the span records :class:`JsonlSink`
writers produced (any number of files, e.g. one per worker), groups them
by span name, and prints count / total / p50 / p99 / max per name.
Quantiles are exact nearest-rank values of the individual durations,
since the trace files retain every record.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, Iterator, List, Sequence

__all__ = [
    "aggregate_spans",
    "format_trace_report",
    "load_many",
    "load_records",
]


def load_records(path: str) -> Iterator[Dict[str, Any]]:
    """Yield JSONL records from ``path``, skipping malformed lines.

    Tolerating torn or garbage lines matters: multiple processes append to
    the same trace and a crash can truncate the final line.  Bytes that are
    not UTF-8 decode to replacement characters, so their line fails to
    parse and is skipped like any other.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def load_many(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """All records from every file, in file order."""
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(load_records(path))
    return records


def _exact_quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of a pre-sorted non-empty list: the smallest
    value with at least ``q * n`` of the ``n`` values at or below it."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def aggregate_spans(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Group span records by name -> {count, total_s, p50_s, p99_s, max_s, parents}."""
    durations: Dict[str, List[float]] = {}
    parents: Dict[str, set] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        name = record.get("name")
        duration = record.get("dur_s")
        if not isinstance(name, str) or not isinstance(duration, (int, float)):
            continue
        durations.setdefault(name, []).append(float(duration))
        parent = record.get("parent")
        if isinstance(parent, str):
            parents.setdefault(name, set()).add(parent)

    report: Dict[str, Dict[str, Any]] = {}
    for name, values in durations.items():
        values.sort()
        report[name] = {
            "count": len(values),
            "total_s": sum(values),
            "p50_s": _exact_quantile(values, 0.5),
            "p99_s": _exact_quantile(values, 0.99),
            "max_s": values[-1],
            "parents": sorted(parents.get(name, ())),
        }
    return report


def format_trace_report(aggregates: Dict[str, Dict[str, Any]]) -> str:
    """Aligned text table, widest total first (where the time went)."""
    if not aggregates:
        return "no span records found\n"
    header = f"{'span':<34} {'count':>8} {'total_s':>10} {'p50_s':>10} {'p99_s':>10} {'max_s':>10}"
    lines = [header, "-" * len(header)]
    by_total = sorted(aggregates.items(), key=lambda item: -item[1]["total_s"])
    for name, stats in by_total:
        lines.append(
            f"{name:<34} {stats['count']:>8} "
            f"{stats['total_s']:>10.4f} {stats['p50_s']:>10.6f} "
            f"{stats['p99_s']:>10.6f} {stats['max_s']:>10.6f}"
        )
    total = sum(stats["total_s"] for _, stats in by_total)
    count = sum(stats["count"] for _, stats in by_total)
    lines.append("-" * len(header))
    lines.append(f"{'all spans':<34} {count:>8} {total:>10.4f}")
    return "\n".join(lines) + "\n"


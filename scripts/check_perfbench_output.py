#!/usr/bin/env python
"""Check that a ``perfbench/run.py`` log holds a complete, parseable result.

The benchmark's consumers read only the last line of its standard output,
one JSON object.  A run whose last line is not that object, or whose
metrics lack a name ``BENCHMARK.json`` declares, cannot be compared against
the ledger -- so this fails such a log before merge instead of after.

Checks:

* no line reports ``absent (wrapped function missing)``: a traced run lost
  a function ``perfbench/spans.py`` wraps by name (deleted or renamed);
* the last line parses as strict JSON: ``NaN`` and ``Infinity`` are
  rejected, since standard JSON has neither;
* it reports ``"correct": true`` and ``"failed": 0``;
* its ``metrics`` hold every ``end_to_end`` (``--metrics end_to_end``, for
  ``--trace 0`` runs) or ``per_layer`` (``--metrics per_layer``, for
  ``--trace 1`` runs) name of ``BENCHMARK.json``, each with a finite
  numeric value.

Usage::

    python3 perfbench/run.py --workload cycle-ladder --seconds 1 | tee run.log
    python scripts/check_perfbench_output.py --metrics end_to_end run.log

Importable too: :func:`check_perfbench_output` returns the list of problems
(empty when the log is good).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List

ABSENT_PREFIX = "absent (wrapped function missing)"

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check_perfbench_output(log: str, names: List[str]) -> List[str]:
    """Problems with one run's stdout ``log`` that must report ``names``."""
    lines = log.splitlines()
    problems = [
        f"traced run lost a wrapped function: {line}"
        for line in lines
        if line.startswith(ABSENT_PREFIX)
    ]
    if not lines:
        return problems + ["empty output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return problems + [f"last line is not strict JSON ({exc}): {lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return problems + ["last line is not a JSON object"]
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["no metrics object"]
    for name in names:
        metric = metrics.get(name)
        value = metric.get("value") if isinstance(metric, dict) else None
        if metric is None:
            problems.append(f"metric {name!r} missing")
        elif (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            problems.append(f"metric {name!r} has no finite value: {value!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("log", help="saved stdout of perfbench/run.py")
    parser.add_argument("--metrics", required=True, choices=("end_to_end", "per_layer"),
                        help="BENCHMARK.json list the run must report")
    args = parser.parse_args(argv)
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())[args.metrics]]
    log = Path(args.log).read_text(encoding="utf-8")
    problems = check_perfbench_output(log, names)
    for problem in problems:
        print(f"perfbench output: {problem}", file=sys.stderr)
    if not problems:
        print(f"perfbench output ok: all {len(names)} {args.metrics} metrics finite")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

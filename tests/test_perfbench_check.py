"""The perfbench output check CI runs on every ``perfbench/run.py`` log."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_perfbench_output", REPO / "scripts" / "check_perfbench_output.py"
)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

END_TO_END = [
    entry["name"]
    for entry in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
]


def log_with(metrics, correct=True, failed=0, extra_lines=()):
    last = json.dumps({
        "correct": correct,
        "attempted": 3,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    })
    return "\n".join(["host: {}", *extra_lines, last]) + "\n"


GOOD = {name: 1.5 for name in END_TO_END}


def test_complete_finite_result_passes():
    assert check.check_perfbench_output(log_with(GOOD), END_TO_END) == []


def test_missing_metric_fails():
    metrics = dict(GOOD)
    metrics.pop("wall_s")
    problems = check.check_perfbench_output(log_with(metrics), END_TO_END)
    assert problems == ["metric 'wall_s' missing"]


def test_nan_and_infinity_are_rejected():
    for bad in (float("nan"), float("inf")):
        log = log_with({**GOOD, "setup_s": bad})
        (problem,) = check.check_perfbench_output(log, END_TO_END)
        assert "not strict JSON" in problem


def test_non_numeric_value_fails():
    log = log_with({**GOOD, "peak_rss_mb": "12"})
    assert check.check_perfbench_output(log, END_TO_END) == [
        "metric 'peak_rss_mb' has no finite value: '12'"
    ]


def test_absent_line_fails_even_with_complete_metrics():
    log = log_with(GOOD, extra_lines=["absent (wrapped function missing): noc.route_walks"])
    (problem,) = check.check_perfbench_output(log, END_TO_END)
    assert "lost a wrapped function" in problem


def test_bad_last_line_fails():
    log = log_with(GOOD) + "batch raised KeyError: 'x'\n"
    (problem,) = check.check_perfbench_output(log, END_TO_END)
    assert "not strict JSON" in problem


def test_incorrect_run_fails():
    problems = check.check_perfbench_output(log_with(GOOD, correct=False, failed=2), END_TO_END)
    assert problems == ["correct is False, not true", "failed is 2, not 0"]


def test_cli_reads_names_from_benchmark_json(tmp_path, capsys):
    path = tmp_path / "run.log"
    path.write_text(log_with(GOOD))
    assert check.main(["--metrics", "end_to_end", str(path)]) == 0
    assert check.main(["--metrics", "per_layer", str(path)]) == 1
    assert "metric 'graph.build_s' missing" in capsys.readouterr().err

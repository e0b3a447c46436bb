"""The telemetry invariant: observed simulations produce identical bytes.

Telemetry may time and stream whatever it likes -- it must never influence
the simulation.  These tests run real workloads with telemetry off and with
a sink, and require the resulting payload bytes (and a figure report) to
match exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.telemetry import NULL, JsonlSink, Telemetry, telemetry_session
from repro.runtime.serialize import result_to_payload

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "golden"))
from golden_cases import GOLDEN_CASES, run_case  # noqa: E402


def _payload_bytes(result) -> bytes:
    return json.dumps(
        result_to_payload(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_payloads_identical_across_telemetry_modes(case, memory_trace):
    # Every golden, both engines and both network models: the golden suite
    # pins the bytes with telemetry off, this sweep pins them with a sink.
    with telemetry_session(NULL):
        baseline = _payload_bytes(run_case(case))
    result = run_case(case)
    assert _payload_bytes(result) == baseline
    if case.config().engine == "analytic":
        # The run must actually have been observed, or this test proves
        # nothing: one epoch span per simulated epoch.  The cycle engine
        # writes no records of its own.
        epochs = memory_trace.records("engine.analytic.epoch")
        assert len(epochs) == result.epochs >= 1


def test_analytic_engine_writes_epoch_and_segment_spans(memory_trace):
    case = next(c for c in GOLDEN_CASES if c.name == "g01-bfs-analytic-torus")
    run_case(case)
    epochs = memory_trace.records("engine.analytic.epoch")
    segments = memory_trace.records("engine.analytic.segment")
    assert epochs and all("labels" not in r for r in epochs)
    assert segments
    for record in segments:
        assert record["parent"] == "engine.analytic.epoch"
        assert set(record["labels"]) == {"task"}


def test_fig6_report_identical_with_telemetry(tmp_path):
    from repro.experiments import fig6

    kwargs = dict(datasets=("rmat16",), grid_widths=(2, 4), scale=0.2)
    with telemetry_session(NULL):
        baseline = fig6.report(fig6.run_fig6(**kwargs))
    jsonl = tmp_path / "fig6.jsonl"
    with telemetry_session(Telemetry(sink=JsonlSink(path=str(jsonl)))):
        observed = fig6.report(fig6.run_fig6(**kwargs))
    assert observed == baseline
    assert "runtime.execute" in jsonl.read_text()

"""The telemetry invariant: observed simulations produce identical bytes.

Telemetry may count, time, and stream whatever it likes -- it must never
influence the simulation.  These tests run real workloads three ways
(registry disabled, enabled, enabled + JSONL sink) and require the resulting
payload bytes (and a figure report) to match exactly.
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

#: One representative per engine/network combination; the full 20-case
#: sweep runs in the golden suite itself (which CI also runs with
#: DALOREX_TELEMETRY=1 via the smoke job).
_CASE_NAMES = (
    "g01-bfs-analytic-torus",     # analytic engine (batched segments)
    "g09-bfs-analytic-barrier",   # analytic engine, barrier epochs
    "g13-bfs-cycle-torus",        # cycle engine, analytical network
    "g19-bfs-cycle-simnet",       # cycle engine, flit-level NoC sampling
)
_CASES = [case for case in GOLDEN_CASES if case.name in _CASE_NAMES]
assert len(_CASES) == len(_CASE_NAMES)


def _payload_bytes(result) -> bytes:
    return json.dumps(
        result_to_payload(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


@pytest.mark.parametrize("case", _CASES, ids=lambda c: c.name)
def test_payloads_identical_across_telemetry_modes(case, tmp_path):
    with telemetry_session(NULL):
        baseline = _payload_bytes(run_case(case))

    with telemetry_session(Telemetry()) as enabled:
        observed = _payload_bytes(run_case(case))
        snapshot = enabled.snapshot()
    assert observed == baseline
    # The run must actually have been observed, or this test proves nothing.
    assert snapshot["counters"] or snapshot["histograms"]

    jsonl = tmp_path / f"{case.name}.jsonl"
    with telemetry_session(Telemetry(sink=JsonlSink(path=str(jsonl)))):
        streamed = _payload_bytes(run_case(case))
    assert streamed == baseline


def test_cycle_engine_emits_event_counters_when_enabled():
    case = next(c for c in GOLDEN_CASES if c.name == "g13-bfs-cycle-torus")
    with telemetry_session(Telemetry()) as telemetry:
        run_case(case)
        counters = telemetry.snapshot()["counters"]
    events = counters.get("engine.cycle.events", {})
    assert events.get("kind=deliver", 0) > 0
    assert events.get("kind=complete", 0) > 0


def test_analytic_engine_emits_epoch_spans_when_enabled():
    case = next(c for c in GOLDEN_CASES if c.name == "g01-bfs-analytic-torus")
    with telemetry_session(Telemetry()) as telemetry:
        run_case(case)
        histograms = telemetry.snapshot()["histograms"]
    spans = histograms.get("span.engine.analytic.epoch.seconds", {})
    assert sum(h["count"] for h in spans.values()) > 0


def test_scalar_epochs_carry_the_batch_decline_reason(small_rmat):
    from repro.apps import BFSKernel
    from repro.core.config import MachineConfig
    from repro.core.machine import DalorexMachine

    def epoch_span_labels(**overrides):
        config = MachineConfig(width=4, height=4, engine="analytic", **overrides)
        machine = DalorexMachine(config, BFSKernel(root=0), small_rmat)
        with telemetry_session(Telemetry()) as telemetry:
            machine.run(compute_energy=False)
            histograms = telemetry.snapshot()["histograms"]
        return set(histograms["span.engine.analytic.epoch.seconds"])

    assert epoch_span_labels(noc="torus_ruche") == {"mode=batched"}
    assert epoch_span_labels(allow_remote_access=True) == {
        "mode=scalar,reason=allow_remote_access uses scalar-only per-access semantics"
    }


def test_simulated_noc_counts_flits_when_enabled():
    case = next(c for c in GOLDEN_CASES if c.name == "g19-bfs-cycle-simnet")
    with telemetry_session(Telemetry()) as telemetry:
        run_case(case)
        counters = telemetry.snapshot()["counters"]
    assert counters.get("noc.sim.messages", {}).get("", 0) > 0
    assert counters.get("noc.sim.flits", {}).get("", 0) > 0


def test_fig6_report_identical_with_telemetry(tmp_path):
    from repro.experiments import fig6

    kwargs = dict(datasets=("rmat16",), grid_widths=(2, 4), scale=0.2)
    with telemetry_session(NULL):
        baseline = fig6.report(fig6.run_fig6(**kwargs))
    jsonl = tmp_path / "fig6.jsonl"
    with telemetry_session(Telemetry(sink=JsonlSink(path=str(jsonl)))):
        observed = fig6.report(fig6.run_fig6(**kwargs))
    assert observed == baseline

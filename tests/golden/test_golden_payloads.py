"""Golden replay: every frozen payload must be reproduced bit-for-bit.

The goldens were frozen from a known-good engine state by
``scripts/make_goldens.py``.  Each case re-runs its simulation with the
current code and compares the fresh result against the stored payload at the
*decoded* level -- every scalar, every counter, every per-tile array, every
output array, bitwise -- so the comparison survives payload-format evolution
(sentinel encodings, format bumps) while still pinning simulation semantics
exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from golden_cases import GOLDEN_CASES, run_case

from repro.runtime.serialize import PAYLOAD_FORMAT, result_from_payload

PAYLOAD_DIR = Path(__file__).parent / "payloads"

#: Result attributes compared exactly (scalar ==; inf compares equal to inf).
_SCALAR_FIELDS = (
    "config_name", "app_name", "dataset_name", "width", "height", "noc",
    "cycles", "frequency_ghz", "sram_bytes_per_tile", "epochs", "verified",
    "num_edges", "num_vertices", "chip_area_mm2", "depth",
    "network_bound_cycles",
)
_ARRAY_FIELDS = (
    "per_tile_busy_cycles", "per_tile_instructions", "per_router_flits",
)


def load_golden(case_name: str) -> dict:
    """Load a stored golden payload, tolerating older payload formats.

    ``json.loads`` accepts the non-standard ``Infinity`` token pre-format-3
    goldens contain, and ``_decode_array`` accepts both raw non-finite floats
    and the sentinel strings newer payloads use, so goldens frozen under any
    format decode to the same arrays.
    """
    path = PAYLOAD_DIR / f"{case_name}.json"
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["format"] = PAYLOAD_FORMAT
    return payload


def compare_results(fresh, golden) -> list:
    problems = []
    for field in _SCALAR_FIELDS:
        a, b = getattr(fresh, field), getattr(golden, field)
        if a != b:
            problems.append(f"{field}: fresh={a!r} golden={b!r}")
    fresh_counters = fresh.counters.to_dict()
    golden_counters = golden.counters.to_dict()
    for name in sorted(set(fresh_counters) | set(golden_counters)):
        a, b = fresh_counters.get(name), golden_counters.get(name)
        if a != b:
            problems.append(f"counters.{name}: fresh={a!r} golden={b!r}")
    for field in _ARRAY_FIELDS:
        a = np.asarray(getattr(fresh, field))
        b = np.asarray(getattr(golden, field))
        if a.dtype != b.dtype or not np.array_equal(a, b, equal_nan=True):
            problems.append(f"{field}: arrays differ (dtype {a.dtype}/{b.dtype})")
    for name in sorted(set(fresh.outputs) | set(golden.outputs)):
        a = fresh.outputs.get(name)
        b = golden.outputs.get(name)
        if a is None or b is None:
            problems.append(f"outputs[{name}]: present in only one result")
        elif a.dtype != b.dtype or not np.array_equal(a, b, equal_nan=True):
            problems.append(f"outputs[{name}]: arrays differ")
    energy_fields = ("logic_j", "memory_j", "network_j", "static_j")
    for field in energy_fields:
        a = getattr(fresh.energy, field)
        b = getattr(golden.energy, field)
        if a != b:
            problems.append(f"energy.{field}: fresh={a!r} golden={b!r}")
    return problems


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_golden_payload_replay(case):
    golden = result_from_payload(load_golden(case.name))
    fresh = run_case(case)
    problems = compare_results(fresh, golden)
    assert not problems, f"{case.name} diverged from golden:\n" + "\n".join(problems)


ANALYTIC_CASES = [case for case in GOLDEN_CASES if case.config().engine == "analytic"]


@pytest.mark.parametrize("case", ANALYTIC_CASES, ids=lambda c: c.name)
def test_scalar_path_replays_analytic_golden(case):
    # The batched segments claim bit-equality with per-invocation execution
    # of the same segments; the goldens pin both to the same frozen bytes.
    golden = result_from_payload(load_golden(case.name))
    fresh = run_case(case, batch_execution=False)
    problems = compare_results(fresh, golden)
    assert not problems, f"{case.name} diverged from golden:\n" + "\n".join(problems)


@pytest.mark.parametrize("case", ANALYTIC_CASES, ids=lambda c: c.name)
def test_reference_loop_replays_analytic_golden(case):
    # ...and so does the per-invocation deque loop both are checked against.
    golden = result_from_payload(load_golden(case.name))
    fresh = run_case(case, reference=True)
    problems = compare_results(fresh, golden)
    assert not problems, f"{case.name} diverged from golden:\n" + "\n".join(problems)

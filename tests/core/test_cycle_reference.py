"""The cycle engine against its reference oracle, bit for bit.

``CycleEngine`` starts every task inside its one drain loop, writes the
per-task counters back once per drain and sweeps idle tiles with refill
events.  ``tests/core/reference_cycle.py`` keeps the dispatch-closure core
that replaced.  Every cycle-engine golden configuration, plus runs aimed at
equal-timestamp ties, multi-task TSU selection, the detailed tracer and
frontier work that only the barrierless sweep reaches, goes through both;
the payloads, the ``CoreState`` columns, the tracer's totals and the
link-load model must be equal.
"""

import json

import numpy as np
import pytest

from repro.apps import SSSPKernel
from repro.core.config import MachineConfig
from repro.core.engine_cycle import CycleEngine
from repro.core.machine import DalorexMachine
from repro.core.program import VERTEX_SPACE
from repro.core.state import CoreState
from repro.experiments.common import build_kernel
from repro.runtime.serialize import result_to_payload
from tests.core.reference_cycle import run_reference
from tests.golden.golden_cases import GOLDEN_CASES, build_graph

#: (id, app, graph recipe, config overrides, detailed trace)
CASES = [
    (case.name, case.app, case.graph, dict(case.overrides), False)
    for case in GOLDEN_CASES
    if dict(case.overrides)["engine"] == "cycle"
] + [
    # No refill delay and no task overhead: refills tie with deliveries and
    # completions at equal timestamps.
    ("ties-barrierless", "sssp", "rmat7w",
     dict(engine="cycle", frontier_refill_delay_cycles=0, task_overhead_instructions=0),
     False),
    # A 2x2 grid keeps several tasks ready on a tile, under either policy.
    ("ready-occupancy", "sssp", "rmat7w",
     dict(engine="cycle", width=2, height=2, scheduling="occupancy"), False),
    ("ready-round-robin", "wcc", "grid12",
     dict(engine="cycle", width=2, height=2, scheduling="round_robin"), False),
    ("detailed-trace", "bfs", "rmat7", dict(engine="cycle", noc="torus"), True),
    # dram_cache's fractional DRAM accesses and hits do not add exactly, and
    # each barrier epoch drains once, so the totals pin the addition order.
    ("dram-cache-epochs", "bfs", "rmat7",
     dict(engine="cycle", memory="dram_cache", barrier=True), False),
]

STATE_COLUMNS = (
    "queue_pushed", "queue_popped", "queue_max_occupancy", "tsu_cursor",
    "pu_busy_until", "pu_busy_cycles", "pu_instructions",
)

TRACER_FIELDS = (
    "spawned", "consumed", "epochs_traced", "epoch_records", "spawned_by_task",
    "consumed_by_task", "queue_high_water",
)


def run(app, graph_key, overrides, detailed, reference):
    graph = build_graph(graph_key)
    config = MachineConfig(**{"width": 4, "height": 4, **overrides}).validate()
    machine = DalorexMachine(config, build_kernel(app, graph), graph, dataset_name=graph_key)
    machine.detailed_trace = detailed
    result = run_reference(machine, verify=True) if reference else machine.run(verify=True)
    return machine, result


@pytest.mark.parametrize("name,app,graph_key,overrides,detailed", CASES,
                         ids=[case[0] for case in CASES])
def test_engine_equals_reference(name, app, graph_key, overrides, detailed, monkeypatch):
    expected_machine, expected = run(app, graph_key, overrides, detailed, reference=True)
    selections = []
    select_task = CoreState.select_task

    def counted(self, tile):
        selections.append(tile)
        return select_task(self, tile)

    monkeypatch.setattr(CoreState, "select_task", counted)
    machine, result = run(app, graph_key, overrides, detailed, reference=False)

    assert machine.tracer.detailed is detailed
    assert_same_run(machine, result, expected_machine, expected)
    if name.startswith("ready-"):
        # The engine picked among several ready tasks through the TSU.
        assert selections


def test_sweep_refills_equal_reference(monkeypatch):
    """Frontier work parked on tiles no task visits waits for the
    barrierless sweep; its refill events start those tiles as the
    reference's sweep does."""
    graph = build_graph("rmat7w")
    root = int(np.flatnonzero(graph.degrees() == 0)[0])  # SSSP visits one tile
    expected_machine = parked_machine(graph, root)
    expected = run_reference(expected_machine, verify=True)
    sweeps = []
    sweep = CycleEngine._refill_idle_tiles

    def counted(self, now):
        sweeps.append(sweep(self, now))
        return sweeps[-1]

    monkeypatch.setattr(CycleEngine, "_refill_idle_tiles", counted)
    machine = parked_machine(graph, root)
    result = machine.run(verify=True)
    assert sweeps[0] and not sweeps[-1]
    assert_same_run(machine, result, expected_machine, expected)


def parked_machine(graph, root):
    """An SSSP machine with three flagged vertices parked in the frontier
    bucket of every odd tile but the root's (which would drain its own)."""
    config = MachineConfig(width=4, height=4, engine="cycle", frontier_refill_batch=2)
    machine = DalorexMachine(config.validate(), SSSPKernel(root=root), graph)
    owners = machine.placement.space(VERTEX_SPACE).owners_of(np.arange(graph.num_vertices))
    for tile in range(1, config.num_tiles, 2):
        if tile != owners[root]:
            parked = np.flatnonzero(owners == tile)[:3]
            machine.state.frontier[tile].extend(parked.tolist())
            # Flagged, so each refilled vertex is explored again and sends
            # (an unreached one sends infinite distances, which relax nothing).
            machine.arrays["in_frontier"][parked] = 1
    return machine


def assert_same_run(machine, result, expected_machine, expected):
    assert result.verified is True
    assert json.dumps(result_to_payload(result), sort_keys=True) == json.dumps(
        result_to_payload(expected), sort_keys=True
    )
    for column in STATE_COLUMNS:
        assert getattr(machine.state, column) == getattr(expected_machine.state, column), column
    for field in TRACER_FIELDS:
        assert getattr(machine.tracer, field) == getattr(expected_machine.tracer, field), field
    model, expected_model = machine.link_model, expected_machine.link_model
    for field, value in vars(expected_model).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(model, field), value), field
        elif field != "topology":
            assert getattr(model, field) == value, field

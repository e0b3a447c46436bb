"""Serial conformance: the analytic engine's report is one fixed set of bytes.

Every analytic run takes the one serial engine, but that engine still has
freedoms that must never show in its report: segments executed as batches
or one invocation at a time, with or without a telemetry sink, and how
many route links a flit-millimeter fold takes at a time.  Each envelope case
below runs both ways of one freedom and compares the serialized payload
bytes, the strictest equality the runtime defines; a payload must also
survive its own decode/encode round trip byte for byte.
"""

import json

import pytest

from repro.core.config import MachineConfig
from repro.core.engine_analytic import AnalyticalEngine
from repro.core.machine import DalorexMachine
from repro.experiments.common import build_kernel
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.noc import analytical
from repro.runtime.serialize import result_from_payload, result_to_payload
from repro.telemetry import NULL, telemetry_session


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(scale=8, edge_factor=6, seed=11, weighted=True)


@pytest.fixture(scope="module")
def tiny_graph():
    return uniform_random_graph(num_vertices=96, num_edges=700, seed=5)


# One case per interesting envelope dimension: barrier and barrierless,
# sram and dram memory, placements, scheduling, interrupts, and the mixed
# link lengths of ruche express channels and 3D TSVs.
CASES = [
    ("bfs", dict(width=4, height=4, noc="torus")),
    ("sssp", dict(width=4, height=4, noc="mesh", memory="dram")),
    ("wcc", dict(width=4, height=4, vertex_placement="block", edge_placement="row")),
    ("pagerank", dict(width=4, height=4, barrier=True)),
    ("spmv", dict(width=8, height=2, remote_invocation="interrupting")),
    ("sssp", dict(width=4, height=4, scheduling="round_robin", barrier=True)),
    ("sssp", dict(width=6, height=4, noc="torus_ruche", ruche_factor=2)),
    ("bfs", dict(width=4, height=2, depth=2, noc="mesh3d")),
    ("pagerank", dict(width=2, height=3, depth=3, noc="torus3d", barrier=True)),
]


def case_id(case):
    app, overrides = case
    return "-".join([app] + [f"{key}={value}" for key, value in overrides.items()])


def build_machine(app, graph, overrides):
    config = MachineConfig(engine="analytic", **overrides).validate()
    return DalorexMachine(config, build_kernel(app, graph), graph, dataset_name="test")


def payload_bytes(result) -> bytes:
    return json.dumps(
        result_to_payload(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def run_bytes(app, graph, overrides, batch=True) -> bytes:
    machine = build_machine(app, graph, overrides)
    machine.batch_execution = batch
    return payload_bytes(machine.run(verify=True))


@pytest.mark.parametrize("case", CASES, ids=case_id)
class TestEnvelopeByteIdentity:
    def test_scalar_path_report_is_byte_identical(self, case, small_graph):
        app, overrides = case
        machine = build_machine(app, small_graph, overrides)
        assert AnalyticalEngine(machine)._prepare_batch() is not None
        batched = run_bytes(app, small_graph, overrides, batch=True)
        assert run_bytes(app, small_graph, overrides, batch=False) == batched

    def test_report_is_byte_identical_with_telemetry_on(self, case, small_graph, memory_trace):
        app, overrides = case
        with telemetry_session(NULL):
            base = run_bytes(app, small_graph, overrides)
        assert run_bytes(app, small_graph, overrides) == base
        epochs = memory_trace.records("engine.analytic.epoch")
        assert epochs and all(r["labels"] == {"mode": "batched"} for r in epochs)

    def test_chunked_millimeter_fold_is_byte_identical(self, case, small_graph, monkeypatch):
        # ROUTE_CHUNK_LINKS bounds the memory of one fold; a fold cut into
        # 7-link chunks must land on the same float as an uncut one.
        app, overrides = case
        base = run_bytes(app, small_graph, overrides)
        monkeypatch.setattr(analytical, "ROUTE_CHUNK_LINKS", 7)
        assert run_bytes(app, small_graph, overrides) == base

    def test_payload_round_trip_is_byte_identical(self, case, small_graph):
        app, overrides = case
        machine = build_machine(app, small_graph, overrides)
        payload = payload_bytes(machine.run(verify=True))
        decoded = result_from_payload(json.loads(payload))
        assert decoded.verified is True
        assert payload_bytes(decoded) == payload


class TestBatchGate:
    """A run the batched path declines names the gate, and still verifies."""

    @pytest.mark.parametrize(
        "decline,expect",
        [("disabled", "disabled"), ("remote_access", "allow_remote_access"),
         ("no_handlers", "lacks batch handlers")],
    )
    def test_decline_reason_names_the_gate(self, decline, expect, tiny_graph, memory_trace):
        overrides = dict(width=4, height=4)
        if decline == "remote_access":
            overrides["allow_remote_access"] = True
        machine = build_machine("bfs", tiny_graph, overrides)
        if decline == "disabled":
            machine.batch_execution = False
        if decline == "no_handlers":
            machine.kernel.batch_handlers = lambda machine: {}
        engine = AnalyticalEngine(machine)
        assert engine._prepare_batch() is None
        assert expect in engine.batch_decline
        assert machine.run(verify=True).verified is True
        epochs = memory_trace.records("engine.analytic.epoch")
        assert epochs and all(
            r["labels"] == {"mode": "scalar", "reason": engine.batch_decline} for r in epochs
        )

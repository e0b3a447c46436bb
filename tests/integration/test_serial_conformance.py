"""Serial conformance: the analytic engine's report is one fixed set of bytes.

Every analytic run takes the one serial engine and runs every segment
through its kernel's batch handlers, but that engine still has freedoms
that must never show in its report: with or without a telemetry sink, and
how many route links a flit-millimeter fold takes at a time.  Each envelope
case below runs both ways of one freedom and compares the serialized
payload bytes, the strictest equality the runtime defines; the batched
report must also equal the per-invocation reference loop's, and a payload
must survive its own decode/encode round trip byte for byte.  Allowing
remote access changes no byte on either engine, because every built-in
handler touches only local data.  A kernel the batch handlers do not cover
is refused, not run some other way.
"""

import json

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.errors import ConfigurationError
from repro.experiments.common import build_kernel
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.noc import analytical
from repro.runtime.serialize import result_from_payload, result_to_payload
from repro.telemetry import NULL, telemetry_session
from tests.core.reference_analytic import run_reference


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


def build_machine(app, graph, overrides, engine="analytic"):
    config = MachineConfig(engine=engine, **overrides).validate()
    return DalorexMachine(config, build_kernel(app, graph), graph, dataset_name="test")


def payload_bytes(result) -> bytes:
    return json.dumps(
        result_to_payload(result), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def run_bytes(app, graph, overrides) -> bytes:
    return payload_bytes(build_machine(app, graph, overrides).run(verify=True))


@pytest.mark.parametrize("case", CASES, ids=case_id)
class TestEnvelopeByteIdentity:
    def test_reference_loop_report_is_byte_identical(self, case, small_graph):
        # The reference loop runs the scalar task handlers one invocation at
        # a time; the batched run must write its bytes on every case.
        app, overrides = case
        machine = build_machine(app, small_graph, overrides)
        reference = payload_bytes(run_reference(machine, verify=True))
        assert run_bytes(app, small_graph, overrides) == reference

    def test_report_is_byte_identical_with_telemetry_on(self, case, small_graph, memory_trace):
        app, overrides = case
        with telemetry_session(NULL):
            base = run_bytes(app, small_graph, overrides)
        assert run_bytes(app, small_graph, overrides) == base
        epochs = memory_trace.records("engine.analytic.epoch")
        assert epochs and all("labels" not in r for r in epochs)

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


APPS = ["bfs", "sssp", "wcc", "pagerank", "spmv"]

#: Remote access allowed, at a penalty other than the default 40 cycles.
REMOTE_ACCESS = dict(allow_remote_access=True, remote_access_penalty_cycles=97)


@pytest.mark.parametrize("barrier", [False, True], ids=["barrierless", "barrier"])
@pytest.mark.parametrize("app", APPS)
def test_remote_access_flag_changes_no_byte(app, barrier, small_graph):
    # The batch handlers touch only local data, so allowing remote access
    # leaves the batched run equal to the run with the flag off and to the
    # per-invocation scalar loop.
    overrides = dict(width=4, height=4, barrier=barrier)
    base = run_bytes(app, small_graph, overrides)
    remote = dict(overrides, **REMOTE_ACCESS)
    assert run_bytes(app, small_graph, remote) == base
    machine = build_machine(app, small_graph, remote)
    assert payload_bytes(run_reference(machine, verify=True)) == base


@pytest.mark.parametrize("barrier", [False, True], ids=["barrierless", "barrier"])
@pytest.mark.parametrize("app", APPS)
def test_remote_access_flag_changes_no_cycle_engine_byte(app, barrier, small_graph):
    # The scalar handlers the cycle engine runs touch only local data too,
    # so no task pays the remote-access penalty.
    overrides = dict(width=4, height=4, barrier=barrier)
    base = build_machine(app, small_graph, overrides, engine="cycle").run(verify=True)
    remote = build_machine(app, small_graph, dict(overrides, **REMOTE_ACCESS), engine="cycle")
    assert payload_bytes(remote.run(verify=True)) == payload_bytes(base)


#: Handler tables that leave tasks out, with the tasks a bfs kernel misses:
#: no handler at all, and no handler for T3 alone.
PARTIAL_HANDLERS = {
    "no-handlers": (
        lambda handlers: {},
        ["T1_explore", "T2_expand", "T3_relax", "T4_refrontier"],
    ),
    "one-task-without-handler": (
        lambda handlers: {name: h for name, h in handlers.items() if name != "T3_relax"},
        ["T3_relax"],
    ),
}


@pytest.mark.parametrize("partial", list(PARTIAL_HANDLERS), ids=list(PARTIAL_HANDLERS))
class TestMissingBatchHandlers:
    """A kernel without a batch handler for every task is refused by the
    analytic engine before any task runs, and still runs on the cycle
    engine, which executes the scalar task handlers."""

    @staticmethod
    def partial_machine(partial, graph, engine):
        machine = build_machine("bfs", graph, dict(width=4, height=4), engine=engine)
        keep, _missing = PARTIAL_HANDLERS[partial]
        handlers = machine.kernel.batch_handlers
        machine.kernel.batch_handlers = lambda machine: keep(handlers(machine))
        return machine

    def test_analytic_engine_refuses_before_any_task_runs(self, partial, tiny_graph):
        machine = self.partial_machine(partial, tiny_graph, "analytic")
        with pytest.raises(ConfigurationError) as refusal:
            machine.run(verify=True)
        message = str(refusal.value)
        assert "kernel 'bfs'" in message
        named = [task.name for task in machine.program.tasks if repr(task.name) in message]
        assert named == PARTIAL_HANDLERS[partial][1]
        assert machine.tracer.consumed == 0

    def test_cycle_engine_runs_the_same_kernel(self, partial, tiny_graph):
        machine = self.partial_machine(partial, tiny_graph, "cycle")
        assert machine.run(verify=True).verified is True


@pytest.mark.parametrize("app", APPS)
def test_analytic_engine_refuses_a_kernel_missing_its_last_task_handler(app, small_graph):
    # The last task of each built-in program runs only downstream of the
    # seeded one; a check of the seeded task alone would let the run start.
    machine = build_machine(app, small_graph, dict(width=4, height=4))
    last = machine.program.tasks[-1].name
    handlers = machine.kernel.batch_handlers
    machine.kernel.batch_handlers = lambda machine: {
        name: handler for name, handler in handlers(machine).items() if name != last
    }
    with pytest.raises(ConfigurationError) as refusal:
        machine.run(verify=True)
    message = str(refusal.value)
    assert f"kernel {app!r}" in message
    assert [task.name for task in machine.program.tasks if repr(task.name) in message] == [last]
    assert machine.tracer.consumed == 0

"""The engines' link accounting: logged per message, charged per batch.

Both engines charge their non-local messages to the link-load model in bulk
(``LinkLoadModel.record_batch`` over a send-order log) instead of one
``record_message`` call per message: the cycle engine once per drain, the
analytic engine once per segment.  After a run, the
model must be exactly what ``record_message`` builds message by message --
a replay of the sent messages in send order for the cycle engine, the
per-invocation reference loop for the analytic engine -- every field, the
flit-millimeter float bit for bit, in both link modes.
"""

import numpy as np
import pytest

from repro.apps import make_kernel
from repro.core import engine_base, engine_cycle
from repro.core.config import MachineConfig
from repro.core.context import TaskContext
from repro.core.machine import DalorexMachine
from repro.core.network import AnalyticalNetwork
from repro.experiments.common import build_kernel
from repro.graph.generators import rmat_graph
from repro.noc.analytical import LinkLoadModel
from repro.noc.sim import NocSimulator
from repro.noc.topology import Topology
from tests.core.reference_analytic import run_reference
from tests.golden.golden_cases import GOLDEN_CASES, build_graph

#: g13-g20: both network models, every cycle-engine golden configuration.
CYCLE_CASES = [case for case in GOLDEN_CASES if dict(case.overrides)["engine"] == "cycle"]

#: g01-g12: every analytic-engine golden configuration.
ANALYTIC_CASES = [case for case in GOLDEN_CASES if dict(case.overrides)["engine"] == "analytic"]

#: (fold constant, detailed link model): the engine's own fold, folds after
#: every one and every three messages, and the aggregate link model.
FOLDS = [
    (engine_cycle.TRAFFIC_FOLD_MESSAGES, True),
    (1, True),
    (3, True),
    (3, False),
]


def spy(monkeypatch, cls, name, calls):
    """Record every call's arguments into ``calls``, then run the original."""
    original = getattr(cls, name)

    def recorded(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, recorded)


def assert_same_link_model(model, expected):
    """Every field equal: total_flit_millimeters by float ==, so bit-equal;
    the per-slot and per-tile tallies are int64 arrays, compared whole."""
    for name, value in vars(expected).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(model, name), value), name
        elif name != "topology":
            assert getattr(model, name) == value, name


@pytest.mark.parametrize("fold,detailed", FOLDS,
                         ids=["fold-default", "fold-1", "fold-3", "aggregate"])
@pytest.mark.parametrize("case", CYCLE_CASES, ids=lambda case: case.name)
def test_link_model_equals_record_message_replay(case, fold, detailed, monkeypatch):
    monkeypatch.setattr(engine_cycle, "TRAFFIC_FOLD_MESSAGES", fold)
    if not detailed:
        monkeypatch.setattr(engine_base, "DETAILED_LINK_MODEL_MAX_TILES", 0)
    sent, batches, fan_outs = [], [], []
    spy(monkeypatch, AnalyticalNetwork, "send", sent)
    spy(monkeypatch, NocSimulator, "send", sent)
    spy(monkeypatch, LinkLoadModel, "record_batch", batches)
    finish = TaskContext.finish

    def counted_finish(self):
        cost = finish(self)
        fan_outs.append(sum(dst != self.tile_id for _task, _params, dst in self.outgoing))
        return cost

    monkeypatch.setattr(TaskContext, "finish", counted_finish)

    graph = build_graph(case.graph)
    machine = DalorexMachine(case.config(), build_kernel(case.app, graph), graph)
    result = machine.run(compute_energy=False)

    model = machine.link_model
    assert model.detailed is detailed
    replay = LinkLoadModel(machine.topology, detailed=detailed)
    replay_hops = [
        replay.record_message(src, dst, flits, machine.tile_pitch_mm)
        for src, dst, flits, _now in sent
    ]
    assert sent and replay.total_messages == len(sent)
    assert_same_link_model(model, replay)
    counters = result.counters
    assert counters.messages - counters.local_messages == len(sent)
    assert counters.flit_hops == replay.total_flit_hops
    assert counters.router_traversals == sum(
        flits * (hops + 1) for (_src, _dst, flits, _now), hops in zip(sent, replay_hops)
    )
    assert counters.flit_millimeters == replay.total_flit_millimeters
    # Every sent message is folded exactly once, and a fold never waits
    # past the constant for longer than one task's fan-out.
    sizes = [len(srcs) for srcs, *_ in batches]
    assert sum(sizes) == len(sent)
    assert max(sizes) < fold + max(fan_outs)


@pytest.mark.parametrize("detailed", [True, False], ids=["detailed", "aggregate"])
@pytest.mark.parametrize("case", ANALYTIC_CASES, ids=lambda case: case.name)
def test_batched_link_model_equals_reference_loop(case, detailed, monkeypatch):
    if not detailed:
        monkeypatch.setattr(engine_base, "DETAILED_LINK_MODEL_MAX_TILES", 0)
    graph = build_graph(case.graph)
    machine = DalorexMachine(case.config(), build_kernel(case.app, graph), graph)
    batches = []
    spy(monkeypatch, LinkLoadModel, "record_batch", batches)
    result = machine.run(compute_energy=False)

    reference_machine = DalorexMachine(case.config(), build_kernel(case.app, graph), graph)
    messages = []
    spy(monkeypatch, LinkLoadModel, "record_message", messages)
    reference = run_reference(reference_machine, compute_energy=False)

    model = machine.link_model
    assert model.detailed is detailed
    assert messages and batches
    assert sum(len(srcs) for srcs, *_ in batches) == len(messages)
    assert_same_link_model(model, reference_machine.link_model)
    for name in ("messages", "local_messages", "flit_hops", "router_traversals",
                 "flit_millimeters"):
        assert getattr(result.counters, name) == getattr(reference.counters, name), name


#: The runs that must not charge per message: the cycle engine on both
#: network models, and the analytic engine with and without remote access.
NO_PER_MESSAGE_RUNS = {
    "analytical": dict(engine="cycle", network="analytical"),
    "simulated": dict(engine="cycle", network="simulated"),
    "analytic-batched": dict(engine="analytic"),
    "analytic-remote-access": dict(engine="analytic", allow_remote_access=True),
}


@pytest.mark.parametrize("overrides", list(NO_PER_MESSAGE_RUNS.values()),
                         ids=list(NO_PER_MESSAGE_RUNS))
def test_cycle_engine_makes_no_per_message_route_or_accounting_calls(overrides, monkeypatch):
    calls = []
    spy(monkeypatch, LinkLoadModel, "record_message", calls)
    spy(monkeypatch, Topology, "route_profile", calls)
    graph = rmat_graph(7, edge_factor=6, seed=3)
    config = MachineConfig(width=4, height=4, **overrides)
    machine = DalorexMachine(config, make_kernel("pagerank", num_iterations=2), graph)
    result = machine.run(compute_energy=False)
    if config.engine == "cycle":
        assert machine.network.kind == config.network
    assert result.counters.flit_hops > 0
    assert calls == []

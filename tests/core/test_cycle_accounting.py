"""The cycle engine's link accounting: logged per message, folded per drain.

The engine charges its non-local messages to the link-load model in bulk
(``LinkLoadModel.record_batch`` over a send-order log) instead of one
``record_message`` call per message.  After a run, the model must be exactly
what a ``record_message`` replay of the sent messages, in send order, builds
-- every field, the flit-millimeter float bit for bit -- however often the
log is folded, in both link modes and on both network models.
"""

import numpy as np
import pytest

from repro.apps import make_kernel
from repro.core import engine_base, engine_cycle
from repro.core.config import MachineConfig
from repro.core.engine_base import BaseEngine
from repro.core.machine import DalorexMachine
from repro.core.network import AnalyticalNetwork
from repro.experiments.common import build_kernel
from repro.graph.generators import rmat_graph
from repro.noc.analytical import LinkLoadModel
from repro.noc.sim import NocSimulator
from repro.noc.topology import Topology
from tests.golden.golden_cases import GOLDEN_CASES, build_graph

#: g13-g20: both network models, every cycle-engine golden configuration.
CYCLE_CASES = [case for case in GOLDEN_CASES if dict(case.overrides)["engine"] == "cycle"]

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
    execute = BaseEngine.execute_invocation

    def counted_execute(self, tile_id, task, params, remote):
        ctx, cost = execute(self, tile_id, task, params, remote)
        fan_outs.append(sum(dst != tile_id for _task, _params, dst in ctx.outgoing))
        return ctx, cost

    monkeypatch.setattr(BaseEngine, "execute_invocation", counted_execute)

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
    # Every field, total_flit_millimeters included: float ==, so bit-equal;
    # the per-slot and per-tile tallies are int64 arrays, compared whole.
    for name, value in vars(replay).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(model, name), value), name
        elif name != "topology":
            assert getattr(model, name) == value, name
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


@pytest.mark.parametrize("network", ["analytical", "simulated"])
def test_cycle_engine_makes_no_per_message_route_or_accounting_calls(network, monkeypatch):
    calls = []
    spy(monkeypatch, LinkLoadModel, "record_message", calls)
    spy(monkeypatch, Topology, "route_profile", calls)
    graph = rmat_graph(7, edge_factor=6, seed=3)
    config = MachineConfig(width=4, height=4, engine="cycle", network=network)
    machine = DalorexMachine(config, make_kernel("pagerank", num_iterations=2), graph)
    result = machine.run(compute_energy=False)
    assert machine.network.kind == network
    assert result.counters.flit_hops > 0
    assert calls == []

"""Unit tests for the local-frontier mechanism shared by the graph kernels."""

import numpy as np
import pytest

from repro.apps import BFSKernel
from repro.core.config import MachineConfig
from repro.core.context import TaskContext
from repro.core.machine import DalorexMachine
from repro.graph.generators import chain_graph


def make_machine(barrier: bool):
    config = MachineConfig(width=2, height=2, engine="analytic", barrier=barrier)
    return DalorexMachine(config, BFSKernel(root=0), chain_graph(16))


def relax_context(machine, vertex):
    owner = machine.placement.owner("vertex", vertex)
    return TaskContext(machine, owner, machine.program.task("T3_relax"))


class TestMarkFrontier:
    def test_barrierless_mark_pushes_to_tile_queue(self):
        machine = make_machine(barrier=False)
        ctx = relax_context(machine, 5)
        machine.kernel.mark_frontier(ctx, 5)
        assert machine.arrays["in_frontier"][5] == 1
        assert machine.state.frontier[ctx.tile_id] == [5]

    def test_mark_is_deduplicated(self):
        machine = make_machine(barrier=False)
        ctx = relax_context(machine, 5)
        machine.kernel.mark_frontier(ctx, 5)
        machine.kernel.mark_frontier(ctx, 5)
        assert machine.state.frontier[ctx.tile_id] == [5]

    def test_barrier_mode_only_sets_flag(self):
        machine = make_machine(barrier=True)
        ctx = relax_context(machine, 5)
        machine.kernel.mark_frontier(ctx, 5)
        assert machine.arrays["in_frontier"][5] == 1
        assert machine.state.frontier[ctx.tile_id] == []


class TestRefillTile:
    def test_refill_respects_budget_and_order(self):
        machine = make_machine(barrier=False)
        ctx = relax_context(machine, 0)
        tile = ctx.tile_id
        vertices = [v for v in range(16) if machine.placement.owner("vertex", v) == tile][:4]
        for vertex in vertices:
            machine.kernel.mark_frontier(relax_context(machine, vertex), vertex)
        first = machine.kernel.refill_tile(machine, tile, budget=2)
        assert [params[0] for _, params in first] == vertices[:2]
        second = machine.kernel.refill_tile(machine, tile, budget=10)
        assert [params[0] for _, params in second] == vertices[2:]
        assert machine.kernel.refill_tile(machine, tile, budget=10) == []

    def test_refill_uses_refrontier_task(self):
        machine = make_machine(barrier=False)
        ctx = relax_context(machine, 3)
        machine.kernel.mark_frontier(ctx, 3)
        seeds = machine.kernel.refill_tile(machine, ctx.tile_id, budget=8)
        assert seeds == [("T4_refrontier", (3,))]


class TestNextEpoch:
    def test_next_epoch_sweeps_and_clears_flags(self):
        machine = make_machine(barrier=True)
        machine.arrays["in_frontier"][[2, 7, 11]] = 1
        seeds = machine.kernel.next_epoch(machine, 1)
        assert sorted(params[0] for _, params in seeds) == [2, 7, 11]
        assert machine.arrays["in_frontier"].sum() == 0
        assert machine.kernel.next_epoch(machine, 2) is None

    def test_frontier_vertices_helper(self):
        machine = make_machine(barrier=True)
        machine.arrays["in_frontier"][[1, 4]] = 1
        assert list(machine.kernel.frontier_vertices(machine)) == [1, 4]

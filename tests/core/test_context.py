"""Unit tests for the task execution context (data access, accounting, invocation)."""

import numpy as np
import pytest

from repro.apps import BFSKernel
from repro.core.config import MachineConfig
from repro.core.context import TaskContext
from repro.core.machine import DalorexMachine
from repro.errors import DataLocalityViolation, ProgramError
from repro.graph.generators import chain_graph


def make_machine(**overrides):
    config = MachineConfig(width=2, height=2, engine="analytic").with_overrides(**overrides)
    graph = chain_graph(8, weighted=True)
    return DalorexMachine(config, BFSKernel(root=0), graph)


def context_for(machine, array, index):
    """Context bound to the tile owning (array, index)."""
    space = machine.program.array_space(array)
    tile = machine.placement.owner(space, index)
    return TaskContext(machine, tile, machine.program.task("T3_relax"))


class TestDataAccess:
    def test_local_read_and_write(self):
        machine = make_machine()
        ctx = context_for(machine, "level", 5)
        ctx.write("level", 5, 3)
        assert ctx.read("level", 5) == 3
        assert ctx.sram_reads == 1
        assert ctx.sram_writes == 1

    def test_remote_access_rejected_by_default(self):
        machine = make_machine()
        owner = machine.placement.owner("vertex", 5)
        other = (owner + 1) % machine.config.num_tiles
        ctx = TaskContext(machine, other, machine.program.task("T3_relax"))
        with pytest.raises(DataLocalityViolation):
            ctx.read("level", 5)

    def test_remote_access_allowed_with_penalty(self):
        machine = make_machine(allow_remote_access=True, remote_access_penalty_cycles=40)
        owner = machine.placement.owner("vertex", 5)
        other = (owner + 1) % machine.config.num_tiles
        ctx = TaskContext(machine, other, machine.program.task("T3_relax"))
        ctx.read("level", 5)
        assert ctx.remote_accesses == 1
        ctx.finish()
        assert ctx.memory_stall_cycles >= 40

    def test_dram_access_stalls(self):
        machine = make_machine(memory="dram", dram_latency_cycles=50)
        ctx = context_for(machine, "level", 2)
        ctx.read("level", 2)
        ctx.finish()
        assert ctx.dram_accesses == 1
        assert ctx.memory_stall_cycles == pytest.approx(49)

    def test_cache_access_expected_latency(self):
        machine = make_machine(
            memory="dram_cache", cache_hit_rate=0.5, cache_hit_latency_cycles=2,
            dram_latency_cycles=100,
        )
        ctx = context_for(machine, "level", 2)
        ctx.read("level", 2)
        ctx.finish()
        assert ctx.cache_hits == pytest.approx(0.5)
        assert ctx.dram_accesses == pytest.approx(0.5)
        assert ctx.memory_stall_cycles == pytest.approx(50)


class TestAccounting:
    def test_task_overhead_charged(self):
        machine = make_machine(task_overhead_instructions=4)
        ctx = context_for(machine, "level", 0)
        assert ctx.instructions == 4
        assert ctx.cycles == 4

    def test_compute_adds_instructions(self):
        machine = make_machine()
        ctx = context_for(machine, "level", 0)
        before = ctx.instructions
        ctx.compute(7)
        assert ctx.instructions == before + 7

    def test_negative_compute_rejected(self):
        ctx = context_for(make_machine(), "level", 0)
        with pytest.raises(ProgramError):
            ctx.compute(-1)

    def test_count_edges(self):
        ctx = context_for(make_machine(), "level", 0)
        ctx.count_edges(12)
        assert ctx.edges == 12

    def test_negative_count_edges_rejected(self):
        ctx = context_for(make_machine(), "level", 0)
        ctx.count_edges(3)
        with pytest.raises(ProgramError, match="edge count"):
            ctx.count_edges(-5)
        assert ctx.edges == 3

    def test_finish_charges_one_instruction_per_access(self):
        machine = make_machine(task_overhead_instructions=4, memory="dram",
                               dram_latency_cycles=10)
        ctx = context_for(machine, "level", 2)
        ctx.read("level", 2)
        ctx.write("level", 2, 7)
        ctx.compute(3)
        assert ctx.instructions == 4 + 3  # accesses are charged by finish()
        assert ctx.finish() == 4 + 3 + 2 + 2 * 9.0
        assert ctx.instructions == 4 + 3 + 2
        assert ctx.cycles == ctx.instructions + ctx.memory_stall_cycles
        assert (ctx.dram_accesses, ctx.cache_hits) == (2.0, 0.0)


class TestInvocation:
    def test_invoke_routes_to_owner(self):
        machine = make_machine()
        ctx = context_for(machine, "level", 0)
        ctx.invoke("T3_relax", 6, 1)
        task, params, destination = ctx.outgoing[0]
        assert task.name == "T3_relax"
        assert params == (6, 1)
        assert destination == machine.placement.owner("vertex", 6)

    def test_invoke_wrong_arity_rejected(self):
        ctx = context_for(make_machine(), "level", 0)
        with pytest.raises(ProgramError):
            ctx.invoke("T3_relax", 6)

    def test_invoke_local_stays_on_tile(self):
        machine = make_machine()
        ctx = TaskContext(machine, 3, machine.program.task("T3_relax"))
        ctx.invoke_local("T1_explore", 0)
        assert ctx.outgoing[0][2] == 3

    def test_invoke_charges_flit_instructions(self):
        machine = make_machine()
        ctx = context_for(machine, "level", 0)
        before = ctx.instructions
        ctx.invoke("T3_relax", 6, 1)
        assert ctx.instructions == before + 2

    def test_invoke_range_splits_at_chunk_boundaries(self):
        machine = make_machine()
        ctx = TaskContext(machine, 0, machine.program.task("T1_explore"))
        ctx.invoke_range("T2_expand", 0, machine.graph.num_edges, 1)
        destinations = {dst for _, _, dst in ctx.outgoing}
        covered = sorted((params[0], params[1]) for _, params, _ in ctx.outgoing)
        assert covered[0][0] == 0
        assert covered[-1][1] == machine.graph.num_edges
        assert len(destinations) > 1

    def test_invoke_range_respects_message_limit(self):
        machine = make_machine(max_range_per_message=2)
        ctx = TaskContext(machine, 0, machine.program.task("T1_explore"))
        ctx.invoke_range("T2_expand", 0, 6, 1)
        assert all(params[1] - params[0] <= 2 for _, params, _ in ctx.outgoing)

    def test_invoke_range_empty_is_noop(self):
        machine = make_machine()
        ctx = TaskContext(machine, 0, machine.program.task("T1_explore"))
        ctx.invoke_range("T2_expand", 5, 5, 1)
        assert ctx.outgoing == []

    def test_invoke_range_empty_rejects_unknown_task(self):
        machine = make_machine()
        ctx = TaskContext(machine, 0, machine.program.task("T1_explore"))
        with pytest.raises(ProgramError, match="unknown task"):
            ctx.invoke_range("T2_typo", 3, 3)
        assert ctx.outgoing == []

    def test_invoke_range_empty_rejects_wrong_arity(self):
        machine = make_machine()
        ctx = TaskContext(machine, 0, machine.program.task("T1_explore"))
        with pytest.raises(ProgramError, match="expects 3 parameters, got 4"):
            ctx.invoke_range("T2_expand", 3, 3, 1, 2)
        assert ctx.outgoing == []

    def test_frontier_bucket_is_per_tile(self):
        machine = make_machine()
        ctx0 = TaskContext(machine, 0, machine.program.task("T3_relax"))
        ctx1 = TaskContext(machine, 1, machine.program.task("T3_relax"))
        ctx0.frontier_bucket().append(1)
        assert ctx0.frontier_bucket() is machine.state.frontier[0]
        assert machine.state.frontier[0] == [1]
        assert ctx1.frontier_bucket() == []

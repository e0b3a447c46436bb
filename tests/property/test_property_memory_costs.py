"""Equivalence: ``TaskContext.finish`` charges memory like per-access addition.

A task's memory costs used to be added access by access: one instruction,
the remote penalty when the access was remote, then the memory kind's local
stall (and, for ``dram_cache``, the hit and miss fractions).  The reference
below keeps that per-access arithmetic as the oracle.  ``finish()`` derives
the same fields once per task from shared prefix tables, and on random
local and remote access sequences -- sram, dram and dram_cache, with
``allow_remote_access`` on and off, pooled contexts reused through
``reset`` -- it must give the same instructions, stall cycles, DRAM
accesses and cache hits, bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BFSKernel
from repro.core.config import MachineConfig
from repro.core.context import MemoryTables, TaskContext
from repro.core.machine import DalorexMachine
from repro.errors import DataLocalityViolation
from repro.graph.generators import chain_graph

#: The executing tile.
TILE = 0


class PerAccessCosts:
    """The per-access memory arithmetic that ``finish()`` replaced."""

    def __init__(self, config) -> None:
        self.remote_penalty = config.remote_access_penalty_cycles
        self.memory = config.memory
        if self.memory == "sram":
            self.local_stall = config.sram_latency_cycles - 1
            self.hit_rate = self.miss_rate = 0.0
        elif self.memory == "dram":
            self.local_stall = config.dram_latency_cycles - 1
            self.hit_rate = self.miss_rate = 0.0
        else:
            hit_rate = config.cache_hit_rate
            self.hit_rate = hit_rate
            self.miss_rate = 1.0 - hit_rate
            expected = (
                hit_rate * config.cache_hit_latency_cycles
                + (1.0 - hit_rate) * config.dram_latency_cycles
            )
            self.local_stall = expected - 1
        self.instructions = config.task_overhead_instructions
        self.memory_stall_cycles = 0.0
        self.dram_accesses = 0.0
        self.cache_hits = 0.0
        self.remote_accesses = 0

    def access(self, remote: bool) -> None:
        if remote:
            self.remote_accesses += 1
            self.memory_stall_cycles += self.remote_penalty
        self.instructions += 1
        if self.memory == "sram":
            self.memory_stall_cycles += self.local_stall
        elif self.memory == "dram":
            self.dram_accesses += 1.0
            self.memory_stall_cycles += self.local_stall
        else:
            self.cache_hits += self.hit_rate
            self.dram_accesses += self.miss_rate
            self.memory_stall_cycles += self.local_stall


def same_float(a, b) -> bool:
    return type(a) is float and type(b) is float and a.hex() == b.hex()


#: An operation: ("read" | "write", remote?) or ("compute", instructions).
operations = st.one_of(
    st.tuples(st.sampled_from(["read", "write"]), st.booleans()),
    st.tuples(st.just("compute"), st.integers(min_value=0, max_value=5)),
)


@st.composite
def memory_scenarios(draw):
    overrides = dict(
        memory=draw(st.sampled_from(["sram", "dram", "dram_cache"])),
        sram_latency_cycles=draw(st.integers(min_value=1, max_value=4)),
        dram_latency_cycles=draw(st.integers(min_value=1, max_value=200)),
        cache_hit_latency_cycles=draw(st.integers(min_value=1, max_value=8)),
        # Hit rates like the default 0.85 give stalls inexact in binary,
        # where the order of additions shows.
        cache_hit_rate=draw(st.one_of(
            st.sampled_from([0.85, 0.9, 0.37]), st.floats(min_value=0.0, max_value=1.0)
        )),
        remote_access_penalty_cycles=draw(st.integers(min_value=0, max_value=100)),
        allow_remote_access=draw(st.booleans()),
        task_overhead_instructions=draw(st.integers(min_value=0, max_value=8)),
    )
    # Two tasks on one pooled context; up to 150 accesses outgrow the
    # tables' initial 64 entries.
    tasks = draw(st.lists(st.lists(operations, min_size=1, max_size=150), min_size=2, max_size=2))
    return overrides, tasks


def make_machine(**overrides) -> DalorexMachine:
    config = MachineConfig(width=2, height=2, engine="cycle").with_overrides(**overrides)
    return DalorexMachine(config, BFSKernel(root=0), chain_graph(8, weighted=True))


def vertex_indices(machine):
    """A vertex :data:`TILE` owns and one it does not."""
    owners = [machine.placement.owner("vertex", v) for v in range(machine.graph.num_vertices)]
    return owners.index(TILE), next(v for v, tile in enumerate(owners) if tile != TILE)


class TestFinishMatchesPerAccessAddition:
    @settings(max_examples=150, deadline=None)
    @given(memory_scenarios())
    def test_every_field_bit_equal(self, scenario):
        overrides, tasks = scenario
        machine = make_machine(**overrides)
        local, remote = vertex_indices(machine)
        task = machine.program.task("T3_relax")
        ctx = TaskContext(machine, TILE, task, MemoryTables(machine.config))
        for operations_of_task in tasks:
            ctx.reset(TILE, task)
            reference = PerAccessCosts(machine.config)
            for name, argument in operations_of_task:
                if name == "compute":
                    ctx.compute(argument)
                    reference.instructions += argument
                    continue
                index = remote if argument else local
                access = (
                    (lambda: ctx.read("level", index)) if name == "read"
                    else (lambda: ctx.write("level", index, 3))
                )
                if argument and not machine.config.allow_remote_access:
                    with pytest.raises(DataLocalityViolation):
                        access()
                    continue
                access()
                reference.access(argument)
            cost = ctx.finish()
            assert ctx.instructions == reference.instructions
            assert ctx.remote_accesses == reference.remote_accesses
            assert same_float(ctx.memory_stall_cycles, reference.memory_stall_cycles)
            assert same_float(ctx.dram_accesses, reference.dram_accesses)
            assert same_float(ctx.cache_hits, reference.cache_hits)
            assert same_float(cost, reference.instructions + reference.memory_stall_cycles)
            assert same_float(ctx.cycles, cost)

    @pytest.mark.parametrize("overrides", [
        {"memory": "sram", "sram_latency_cycles": 3},
        {"memory": "dram"},
        {"memory": "dram_cache"},  # the default 9.7-cycle stall
        {"memory": "dram_cache", "cache_hit_rate": 0.37, "dram_latency_cycles": 61},
    ], ids=["sram", "dram", "dram_cache", "dram_cache-0.37"])
    def test_every_access_count_to_200(self, overrides):
        # k * step drifts from k additions from k = 6 on; the tables grow
        # past their first 64 entries on the way.
        machine = make_machine(**overrides)
        task = machine.program.task("T3_relax")
        local, _remote = vertex_indices(machine)
        ctx = TaskContext(machine, TILE, task)
        for count in range(201):
            ctx.reset(TILE, task)
            reference = PerAccessCosts(machine.config)
            for _ in range(count):
                ctx.read("level", local)
                reference.access(False)
            cost = ctx.finish()
            assert same_float(ctx.memory_stall_cycles, reference.memory_stall_cycles), count
            assert same_float(ctx.dram_accesses, reference.dram_accesses), count
            assert same_float(ctx.cache_hits, reference.cache_hits), count
            assert same_float(cost, reference.instructions + reference.memory_stall_cycles)

    @pytest.mark.parametrize("memory", ["sram", "dram", "dram_cache"])
    def test_remote_penalty_lands_in_access_order(self, memory):
        # 9.7 stall cycles per dram_cache access are not exact in binary, so
        # the penalty's place among the local stalls changes the float.
        machine = make_machine(memory=memory, allow_remote_access=True,
                               remote_access_penalty_cycles=7, cache_hit_rate=0.9)
        task = machine.program.task("T3_relax")
        local, remote = vertex_indices(machine)
        for remote_at in range(5):
            ctx = TaskContext(machine, TILE, task)
            reference = PerAccessCosts(machine.config)
            for ordinal in range(5):
                ctx.read("level", remote if ordinal == remote_at else local)
                reference.access(ordinal == remote_at)
            ctx.finish()
            assert same_float(ctx.memory_stall_cycles, reference.memory_stall_cycles)

"""Task execution context: the API task handlers use to touch data and spawn tasks.

A handler receives a :class:`TaskContext` bound to the tile executing the task.
All reads/writes are checked against the data placement (enforcing the paper's
data-local invariant), every action is accounted (instructions, memory accesses,
message flits) and outgoing task invocations are collected for the engine to
deliver.  The context is also where the memory-system cost model lives: SRAM
accesses cost one cycle, DRAM accesses stall the in-order PU, and the
Tesseract-LC cache approximation uses an expected-latency model.

Contexts are pooled by the engines (one task execution is one :meth:`reset`,
not one allocation) and cache the per-machine lookup tables -- array index
spaces, per-space owner functions, task declarations -- so the per-access hot
path is a couple of dict probes instead of a chain of method calls.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import DataLocalityViolation, ProgramError
from repro.core.task import Task


class TaskContext:
    """Per-task-execution state: data access, accounting, and task invocation."""

    __slots__ = (
        "_machine",
        "_arrays",
        "_array_space",
        "_owner_of",
        "_tasks_by_name",
        "_config",
        "_allow_remote",
        "_remote_penalty",
        "_memory",
        "_local_stall",
        "_cache_hit_rate",
        "_cache_miss_rate",
        "tile_id",
        "task",
        "instructions",
        "memory_stall_cycles",
        "sram_reads",
        "sram_writes",
        "dram_accesses",
        "cache_hits",
        "remote_accesses",
        "edges",
        "outgoing",
    )

    def __init__(self, machine, tile_id: int = 0, task: Task = None) -> None:
        self._machine = machine
        self._config = machine.config
        self._arrays = machine.arrays
        program = machine.program
        placement = machine.placement
        self._array_space = {
            name: spec.space for name, spec in program.arrays.items()
        }
        self._owner_of = {
            name: space.owner for name, space in placement.spaces.items()
        }
        self._tasks_by_name = {t.name: t for t in program.tasks}
        # Memory-model constants (the config is immutable): the per-access
        # stall each memory kind adds, precomputed with the same arithmetic
        # the per-access path historically used.
        config = self._config
        self._allow_remote = config.allow_remote_access
        self._remote_penalty = config.remote_access_penalty_cycles
        self._memory = config.memory
        if self._memory == "sram":
            self._local_stall = config.sram_latency_cycles - 1
            self._cache_hit_rate = self._cache_miss_rate = 0.0
        elif self._memory == "dram":
            self._local_stall = config.dram_latency_cycles - 1
            self._cache_hit_rate = self._cache_miss_rate = 0.0
        else:  # dram_cache: expected-latency approximation
            hit_rate = config.cache_hit_rate
            self._cache_hit_rate = hit_rate
            self._cache_miss_rate = 1.0 - hit_rate
            expected = (
                hit_rate * config.cache_hit_latency_cycles
                + (1.0 - hit_rate) * config.dram_latency_cycles
            )
            self._local_stall = expected - 1
        # (task, params, destination tile) triples produced by this execution.
        self.outgoing: List[Tuple[Task, tuple, int]] = []
        self.reset(tile_id, task)

    def reset(self, tile_id: int, task: Task) -> "TaskContext":
        """Rebind the pooled context to one task execution on one tile."""
        self.tile_id = tile_id
        self.task = task
        self.instructions = self._config.task_overhead_instructions
        self.memory_stall_cycles = 0.0
        self.sram_reads = 0
        self.sram_writes = 0
        self.dram_accesses = 0.0
        self.cache_hits = 0.0
        self.remote_accesses = 0
        self.edges = 0
        self.outgoing.clear()
        return self

    # ------------------------------------------------------------ properties
    @property
    def config(self):
        return self._config

    @property
    def barrier(self) -> bool:
        """True when the machine runs with per-epoch global barriers."""
        return self._machine.barrier_effective

    def frontier_bucket(self) -> list:
        """The executing tile's local frontier bucket (``state.frontier[tile]``)."""
        return self._machine.state.frontier[self.tile_id]

    @property
    def num_tiles(self) -> int:
        return self._config.num_tiles

    @property
    def cycles(self) -> float:
        """Total PU cycles consumed by this task execution."""
        return self.instructions + self.memory_stall_cycles

    # --------------------------------------------------------------- accesses
    def _account_access(self, space: str, index: int) -> None:
        owner = self._owner_of[space](index)
        if owner != self.tile_id:
            if not self._allow_remote:
                raise DataLocalityViolation(
                    f"task {self.task.name!r} on tile {self.tile_id} accessed "
                    f"{space}[{index}] owned by tile {owner}"
                )
            self.remote_accesses += 1
            self.memory_stall_cycles += self._remote_penalty
        self.instructions += 1
        memory = self._memory
        if memory == "sram":
            self.memory_stall_cycles += self._local_stall
        elif memory == "dram":
            self.dram_accesses += 1.0
            self.memory_stall_cycles += self._local_stall
        else:  # dram_cache: expected-latency approximation of a large private cache
            self.cache_hits += self._cache_hit_rate
            self.dram_accesses += self._cache_miss_rate
            self.memory_stall_cycles += self._local_stall

    def _space_of(self, array: str) -> str:
        space = self._array_space.get(array)
        if space is None:
            # Unknown array: route through the program for the proper error.
            space = self._machine.program.array_space(array)
        return space

    def read(self, array: str, index: int) -> Any:
        """Read one element of a distributed array (must be local in Dalorex)."""
        index = int(index)
        self._account_access(self._space_of(array), index)
        self.sram_reads += 1
        return self._arrays[array][index]

    def write(self, array: str, index: int, value: Any) -> None:
        """Write one element of a distributed array (must be local in Dalorex)."""
        index = int(index)
        self._account_access(self._space_of(array), index)
        self.sram_writes += 1
        self._arrays[array][index] = value

    # -------------------------------------------------------------- compute
    def compute(self, instruction_count: int = 1) -> None:
        """Charge ALU/control instructions that do not touch memory."""
        if instruction_count < 0:
            raise ProgramError("instruction count cannot be negative")
        self.instructions += instruction_count

    def count_edges(self, edge_count: int = 1) -> None:
        """Record graph edges processed (the paper's throughput unit)."""
        self.edges += edge_count

    # ------------------------------------------------------------ invocation
    def _resolve_task(self, task_name: str) -> Task:
        task = self._tasks_by_name.get(task_name)
        if task is None:
            # Unknown task: route through the program for the proper error.
            task = self._machine.program.task(task_name)
        return task

    def invoke(self, task_name: str, *params) -> None:
        """Invoke ``task_name`` on the tile owning ``params[0]`` in its route space.

        Writing the parameters into the channel queue costs one instruction per
        flit, as in the paper (the head flit is the routing index itself).
        """
        task = self._resolve_task(task_name)
        if len(params) != task.num_params:
            raise ProgramError(
                f"task {task.name!r} expects {task.num_params} parameters, got {len(params)}"
            )
        destination = self._owner_of[task.route_space](int(params[0]))
        self.instructions += task.flits_per_invocation
        self.outgoing.append((task, params, destination))

    def invoke_local(self, task_name: str, *params) -> None:
        """Invoke a task on this tile regardless of its routing index."""
        task = self._resolve_task(task_name)
        if len(params) != task.num_params:
            raise ProgramError(
                f"task {task.name!r} expects {task.num_params} parameters, got {len(params)}"
            )
        self.instructions += task.flits_per_invocation
        self.outgoing.append((task, params, self.tile_id))

    def invoke_range(self, task_name: str, begin: int, end: int, *extra) -> None:
        """Invoke a range-processing task, splitting ``[begin, end)`` by data owner.

        Mirrors the paper's T1: a neighbour range is split whenever it crosses a
        chunk boundary or exceeds the per-message range limit, and one message
        ``(sub_begin, sub_end, *extra)`` is sent to each owning tile.
        """
        if begin >= end:
            return
        task = self._resolve_task(task_name)
        if task.num_params != 2 + len(extra):
            raise ProgramError(
                f"range task {task.name!r} expects {task.num_params} parameters, "
                f"got {2 + len(extra)}"
            )
        placement = self._machine.placement
        max_range = self._config.max_range_per_message
        flits = task.flits_per_invocation
        outgoing = self.outgoing
        for tile, sub_begin, sub_end in placement.contiguous_ranges(
            task.route_space, int(begin), int(end)
        ):
            cursor = sub_begin
            while cursor < sub_end:
                chunk_end = min(sub_end, cursor + max_range)
                self.instructions += flits
                outgoing.append((task, (cursor, chunk_end) + tuple(extra), tile))
                cursor = chunk_end

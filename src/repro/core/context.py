"""Task execution context: the API task handlers use to touch data and spawn tasks.

A handler receives a :class:`TaskContext` bound to the tile executing the task.
All reads/writes are checked against the data placement (enforcing the paper's
data-local invariant), every action is accounted (instructions, memory accesses,
message flits) and outgoing task invocations are collected for the engine to
deliver.

The memory-system cost model lives in :class:`MemoryTables`: SRAM accesses cost
one cycle, DRAM accesses stall the in-order PU, and the Tesseract-LC cache
approximation uses an expected-latency model.  A read or write only checks its
owner and counts itself; :meth:`TaskContext.finish` derives the task's
instructions, memory stall, DRAM accesses and cache hits from the access count
once per task, from the same prefix tables the analytic engine's batched path
indexes with whole arrays of counts.

Contexts are pooled by the engines (one task execution is one :meth:`reset`
and one :meth:`finish`, not one allocation) and share the per-machine
lookups :func:`context_bindings` builds once per engine: ``(values, owner)``
per array and ``(task, owner, num_params, flits)`` per task name, where
``owner`` is the index space's placement function.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.batch import repeated_add_prefix
from repro.core.task import Task
from repro.errors import DataLocalityViolation, ProgramError


class MemoryTables:
    """Memory costs per access count, shared by the scalar and batched paths.

    The memory model charges every access a fixed stall (and, for
    ``dram_cache``, fixed hit and miss fractions), added once per access.
    Repeated addition is not ``k * step`` in IEEE arithmetic -- the
    dram_cache stall of 9.7 cycles is not exact -- so these prefix tables
    hold the repeated-addition values indexed by access count: numpy arrays
    for the batched path, lists for one task's :meth:`TaskContext.finish`.
    """

    def __init__(self, config) -> None:
        self.memory = config.memory
        #: Stall cycles one local access adds.
        self.stall_step = config.memory_latency_cycles() - 1
        # dram_cache only: the expected hit and miss fraction of one access.
        self._hit_rate = config.cache_hit_rate
        self._miss_rate = 1.0 - config.cache_hit_rate
        #: Largest access count the tables cover.
        self.size = 0
        self.ensure(64)

    def ensure(self, count: int) -> None:
        """Grow the tables to cover ``count`` accesses (doubling)."""
        if count <= self.size:
            return
        size = max(count, 2 * self.size)
        self.stall = repeated_add_prefix(self.stall_step, size)
        zeros = [0.0] * (size + 1)
        if self.memory == "dram_cache":
            self._hit_table = repeated_add_prefix(self._hit_rate, size)
            self._miss_table = repeated_add_prefix(self._miss_rate, size)
            self.dram_of = self._miss_table.tolist()
            self.hits_of = self._hit_table.tolist()
        elif self.memory == "dram":
            # Repeated addition of 1.0 is exactly the integer count.
            self.dram_of = np.arange(size + 1, dtype=np.float64).tolist()
            self.hits_of = zeros
        else:
            self.dram_of = self.hits_of = zeros
        #: Per access count, as lists: stall cycles, DRAM accesses, cache hits.
        self.stall_of = self.stall.tolist()
        self.size = size

    def dram(self, accesses: np.ndarray) -> Optional[np.ndarray]:
        """Per-item dram_accesses, or None when the mode never charges DRAM."""
        if self.memory == "dram":
            return accesses.astype(np.float64)
        if self.memory == "dram_cache":
            return self._miss_table[accesses]
        return None

    def hits(self, accesses: np.ndarray) -> Optional[np.ndarray]:
        if self.memory == "dram_cache":
            return self._hit_table[accesses]
        return None


def context_bindings(machine) -> Tuple[dict, dict]:
    """A machine's ``(arrays, tasks)`` lookups for :class:`TaskContext`:
    ``(values, owner)`` per array name and ``(task, owner, num_params,
    flits)`` per task name."""
    program = machine.program
    owner_of = {name: space.owner for name, space in machine.placement.spaces.items()}
    arrays = {
        name: (machine.arrays[name], owner_of[spec.space])
        for name, spec in program.arrays.items()
    }
    tasks = {
        t.name: (t, owner_of.get(t.route_space), t.num_params, t.flits_per_invocation)
        for t in program.tasks
    }
    return arrays, tasks


class TaskContext:
    """Per-task-execution state: data access, accounting, and task invocation.

    ``instructions`` counts task overhead, compute and message flits as the
    handler runs; :meth:`finish` adds one instruction per access and sets
    ``memory_stall_cycles``, ``dram_accesses`` and ``cache_hits``.
    """

    __slots__ = (
        "_machine",
        "_arrays",
        "_tasks",
        "_config",
        "_tables",
        "_allow_remote",
        "_remote_penalty",
        "_remote_at",
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

    def __init__(
        self,
        machine,
        tile_id: int = 0,
        task: Task = None,
        tables: Optional[MemoryTables] = None,
        bindings: Optional[Tuple[dict, dict]] = None,
    ) -> None:
        self._machine = machine
        config = self._config = machine.config
        self._arrays, self._tasks = context_bindings(machine) if bindings is None else bindings
        self._tables = MemoryTables(config) if tables is None else tables
        self._allow_remote = config.allow_remote_access
        self._remote_penalty = config.remote_access_penalty_cycles
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
        # Access ordinals of the remote accesses, in access order.
        self._remote_at = ()
        self.edges = 0
        self.outgoing.clear()
        return self

    def finish(self) -> float:
        """Charge the task's accesses; return its PU cycles.

        Adds one instruction per access and sets ``memory_stall_cycles``,
        ``dram_accesses`` and ``cache_hits`` to the values per-access
        addition gives, read from the shared :class:`MemoryTables`.  Call it
        once, after the handler returned.
        """
        accesses = self.sram_reads + self.sram_writes
        self.instructions += accesses
        tables = self._tables
        if accesses > tables.size:
            tables.ensure(accesses)
        if self._remote_at:
            self.memory_stall_cycles = self._replay_stall(accesses)
        else:
            self.memory_stall_cycles = tables.stall_of[accesses]
        self.dram_accesses = tables.dram_of[accesses]
        self.cache_hits = tables.hits_of[accesses]
        return self.instructions + self.memory_stall_cycles

    def _replay_stall(self, accesses: int) -> float:
        # The remote penalty lands before the local stall of its own access,
        # so the float sum follows the task's access order.
        step = self._tables.stall_step
        penalty = self._remote_penalty
        remote = set(self._remote_at)
        stall = 0.0
        for ordinal in range(accesses):
            if ordinal in remote:
                stall += penalty
            stall += step
        return stall

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
        """Total PU cycles consumed by this task execution (after :meth:`finish`)."""
        return self.instructions + self.memory_stall_cycles

    # --------------------------------------------------------------- accesses
    def _remote_access(self, array: str, index: int, owner: int) -> None:
        if not self._allow_remote:
            raise DataLocalityViolation(
                f"task {self.task.name!r} on tile {self.tile_id} accessed "
                f"{self._machine.program.array_space(array)}[{index}] owned by tile {owner}"
            )
        self._remote_at += (self.sram_reads + self.sram_writes,)
        self.remote_accesses += 1

    def read(self, array: str, index: int) -> Any:
        """Read one element of a distributed array (must be local in Dalorex)."""
        index = int(index)
        try:
            values, owner = self._arrays[array]
        except KeyError:
            self._machine.program.array_space(array)  # raises the unknown-array error
            raise
        tile = owner(index)
        if tile != self.tile_id:
            self._remote_access(array, index, tile)
        self.sram_reads += 1
        return values[index]

    def write(self, array: str, index: int, value: Any) -> None:
        """Write one element of a distributed array (must be local in Dalorex)."""
        index = int(index)
        try:
            values, owner = self._arrays[array]
        except KeyError:
            self._machine.program.array_space(array)  # raises the unknown-array error
            raise
        tile = owner(index)
        if tile != self.tile_id:
            self._remote_access(array, index, tile)
        self.sram_writes += 1
        values[index] = value

    # -------------------------------------------------------------- compute
    def compute(self, instruction_count: int = 1) -> None:
        """Charge ALU/control instructions that do not touch memory."""
        if instruction_count < 0:
            raise ProgramError("instruction count cannot be negative")
        self.instructions += instruction_count

    def count_edges(self, edge_count: int = 1) -> None:
        """Record graph edges processed (the paper's throughput unit)."""
        if edge_count < 0:
            raise ProgramError("edge count cannot be negative")
        self.edges += edge_count

    # ------------------------------------------------------------ invocation
    def _bound_task(self, task_name: str, num_params: int, kind: str = "task") -> tuple:
        """``(task, owner, num_params, flits)`` of a task called with ``num_params``."""
        try:
            bound = self._tasks[task_name]
        except KeyError:
            # Unknown task: route through the program for the proper error.
            self._machine.program.task(task_name)
            raise
        if num_params != bound[2]:
            raise ProgramError(
                f"{kind} {task_name!r} expects {bound[2]} parameters, got {num_params}"
            )
        return bound

    def invoke(self, task_name: str, *params) -> None:
        """Invoke ``task_name`` on the tile owning ``params[0]`` in its route space.

        Writing the parameters into the channel queue costs one instruction per
        flit, as in the paper (the head flit is the routing index itself).
        """
        bound = self._tasks.get(task_name)
        if bound is None or len(params) != bound[2]:
            bound = self._bound_task(task_name, len(params))
        task, owner, _num_params, flits = bound
        destination = owner(int(params[0]))
        self.instructions += flits
        self.outgoing.append((task, params, destination))

    def invoke_local(self, task_name: str, *params) -> None:
        """Invoke a task on this tile regardless of its routing index."""
        task, _owner, _num_params, flits = self._bound_task(task_name, len(params))
        self.instructions += flits
        self.outgoing.append((task, params, self.tile_id))

    def invoke_range(self, task_name: str, begin: int, end: int, *extra) -> None:
        """Invoke a range-processing task, splitting ``[begin, end)`` by data owner.

        Mirrors the paper's T1: a neighbour range is split whenever it crosses a
        chunk boundary or exceeds the per-message range limit, and one message
        ``(sub_begin, sub_end, *extra)`` is sent to each owning tile.  The task
        and its arity are checked even when the range is empty.
        """
        task, _owner, _num_params, flits = self._bound_task(
            task_name, 2 + len(extra), "range task"
        )
        if begin >= end:
            return
        placement = self._machine.placement
        max_range = self._config.max_range_per_message
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

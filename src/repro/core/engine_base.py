"""Shared logic between the analytical and cycle simulation engines.

Both engines execute the same task programs functionally (so algorithm outputs
are identical and can be validated against the sequential references); they
differ only in how cycles are attributed.  This base class owns the functional
execution of one task, the traffic/energy accounting, epoch seeding and the
assembly of the :class:`~repro.core.results.SimulationResult`.

All per-tile accounting goes through the machine's columnar
:class:`~repro.core.state.CoreState` (flat arrays indexed by tile id) rather
than per-tile objects, and task contexts are pooled: one execution costs one
:meth:`~repro.core.context.TaskContext.reset` and one
:meth:`~repro.core.context.TaskContext.finish`, not an allocation.  Every
context of one engine shares the engine's lookup bindings and
:class:`~repro.core.context.MemoryTables`, which the analytic engine's batched
path indexes too: one memory-cost definition for every path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import MemoryTables, TaskContext, context_bindings
from repro.core.results import AggregateCounters, SimulationResult
from repro.core.task import Task
from repro.errors import SimulationError
from repro.noc.analytical import LinkLoadModel
from repro.telemetry import get_telemetry
from repro.verify.tracing import InvariantTracer

#: Above this tile count the analytical engine switches the link-load model to
#: its aggregate (non-per-link) mode to keep simulation time reasonable.
DETAILED_LINK_MODEL_MAX_TILES = 2048

Seed = Tuple[str, tuple]


class BaseEngine:
    """Functional task execution, accounting and result assembly."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.config = machine.config
        self.program = machine.program
        self.placement = machine.placement
        self.topology = machine.topology
        self.state = machine.state
        self.kernel = machine.kernel
        self.counters = AggregateCounters()
        # Kernel dispatch table: task_id -> Task, indexed on every dispatch.
        self.task_table = self.program.dispatch_table()
        detailed = machine.config.num_tiles <= DETAILED_LINK_MODEL_MAX_TILES
        self.link_model = LinkLoadModel(self.topology, detailed=detailed)
        self.tile_pitch_mm = machine.tile_pitch_mm
        # Pool of reusable task contexts (one live context per in-flight
        # task execution; the cycle engine holds one per busy tile).
        self._context_pool: List[TaskContext] = []
        #: Per-access-count memory costs, shared by every context and batch.
        self.memory_tables = MemoryTables(self.config)
        #: The per-machine lookups every pooled context shares.
        self.context_bindings = context_bindings(machine)
        self._interrupting = self.config.remote_invocation == "interrupting"
        # Conservation tracing: both engines feed the same spawn/consume hooks,
        # and build_result() runs the always-on checks.  The machine keeps a
        # reference so callers can inspect the trace after run() returns.
        self.tracer = InvariantTracer(detailed=getattr(machine, "detailed_trace", False))
        machine.tracer = self.tracer
        # Telemetry observes, never influences: simulation outputs are
        # byte-identical with and without a trace file (without one, this
        # is the shared no-op NULL).
        self.telemetry = get_telemetry()
        # The link-load model is likewise published so the network
        # conformance oracle can compare it against the simulated network's
        # per-link accounting after run() returns.
        machine.link_model = self.link_model

    # -------------------------------------------------------------- execution
    def execute_invocation(
        self, tile_id: int, task: Task, params: tuple, remote: bool
    ) -> Tuple[TaskContext, float]:
        """Run one task handler functionally, count it into the machine-wide
        totals and return its context and cost.

        The returned context comes from the engine's pool; pass it back to
        :meth:`release_context` once its ``outgoing`` list has been consumed.
        The cycle engine's drain loop does the same work inline.
        """
        pool = self._context_pool
        ctx = pool.pop().reset(tile_id, task) if pool else self.new_context(tile_id, task)
        task.handler(ctx, *params)
        cost = ctx.finish()
        self.tracer.record_execution(task, ctx.outgoing)
        counters = self.counters
        if remote and self._interrupting:
            cost += self.config.interrupt_penalty_cycles
            counters.remote_interrupts += 1
        counters.instructions += ctx.instructions
        counters.tasks_executed += 1
        counters.sram_reads += ctx.sram_reads
        counters.sram_writes += ctx.sram_writes
        counters.dram_accesses += ctx.dram_accesses
        counters.cache_hits += ctx.cache_hits
        counters.edges_processed += ctx.edges
        return ctx, cost

    def new_context(self, tile_id: int, task: Task) -> TaskContext:
        """A context for the pool, sharing the engine's tables and bindings."""
        return TaskContext(
            self.machine, tile_id, task, self.memory_tables, self.context_bindings
        )

    def release_context(self, ctx: TaskContext) -> None:
        """Return a context to the pool for reuse by the next execution."""
        self._context_pool.append(ctx)

    def charge_messages(
        self, link_model: LinkLoadModel, srcs: np.ndarray, dsts: np.ndarray, flits
    ) -> None:
        """Charge non-local messages to ``link_model``, in send order.

        One :meth:`~repro.noc.analytical.LinkLoadModel.record_batch` call,
        bit-equal to charging the messages one at a time in that order;
        ``flits`` is one length for every message or an int array aligned
        with ``srcs``.  Adds the flit-hop and router-traversal counters
        from its hops (a message passes one more router than it hops).
        """
        hops = link_model.record_batch(srcs, dsts, flits, self.tile_pitch_mm)
        flits = np.broadcast_to(flits, hops.shape)
        flit_hops = int(flits @ hops)
        counters = self.counters
        counters.flit_hops += flit_hops
        counters.router_traversals += flit_hops + int(flits.sum())

    # ------------------------------------------------------------------ seeds
    def resolve_seeds(self, seeds: Sequence[Seed]) -> List[Tuple[int, Task, tuple]]:
        """Map ``(task_name, params)`` seeds to their destination tiles."""
        resolved = []
        for task_name, params in seeds:
            task = self.program.task(task_name)
            params = tuple(params)
            if len(params) != task.num_params:
                raise SimulationError(
                    f"seed for task {task_name!r} has {len(params)} parameters, "
                    f"expected {task.num_params}"
                )
            destination = self.placement.owner(task.route_space, int(params[0]))
            resolved.append((destination, task, params))
        self.tracer.record_seeds(resolved)
        return resolved

    def resolve_refill(self, tile_id: int) -> List[Tuple[Task, tuple]]:
        """Pull parked frontier work for one tile (barrierless mode).

        The single refill path shared by both engines, so the invariant tracer
        sees every refill-origin spawn exactly once.
        """
        seeds = self.kernel.refill_tile(
            self.machine, tile_id, self.config.frontier_refill_batch
        )
        resolved = [
            (self.program.task(task_name), tuple(params)) for task_name, params in seeds
        ]
        if resolved:
            self.tracer.record_refill(resolved)
        return resolved

    def charge_epoch_seeding(self, resolved_seeds: Sequence[Tuple[int, Task, tuple]]) -> np.ndarray:
        """Charge the per-vertex frontier re-exploration cost (the paper's T4).

        Returns the per-tile cycles charged so the caller can add them to the
        epoch's compute time.
        """
        per_tile = np.zeros(self.config.num_tiles, dtype=np.float64)
        cost = self.config.epoch_seed_instructions
        pu_instructions = self.state.pu_instructions
        for tile_id, _task, _params in resolved_seeds:
            per_tile[tile_id] += cost
            self.counters.instructions += cost
            pu_instructions[tile_id] += cost
        return per_tile

    def next_epoch_seeds(self, epoch_index: int) -> Optional[List[Seed]]:
        """Ask the kernel for the next epoch's work (barrier mode only)."""
        seeds = self.kernel.next_epoch(self.machine, epoch_index)
        if not seeds:
            return None
        return list(seeds)

    # ----------------------------------------------------------------- result
    def build_result(self, cycles: float, epochs: int) -> SimulationResult:
        state = self.state
        self.tracer.record_queue_stats(state)
        self.tracer.verify(self.counters, state)
        per_tile_busy = np.array(state.pu_busy_cycles, dtype=np.float64)
        per_tile_instructions = np.array(state.pu_instructions)
        per_router_flits = self.link_model.router_traffic().astype(np.float64)
        self.counters.flit_millimeters = self.link_model.total_flit_millimeters
        self.counters.epochs = epochs
        result = SimulationResult(
            config_name=self.config.name,
            app_name=self.kernel.name,
            dataset_name=self.machine.dataset_name,
            width=self.config.width,
            height=self.config.height,
            noc=self.config.noc,
            cycles=float(cycles),
            frequency_ghz=self.config.frequency_ghz,
            counters=self.counters,
            per_tile_busy_cycles=per_tile_busy,
            per_tile_instructions=per_tile_instructions,
            per_router_flits=per_router_flits,
            sram_bytes_per_tile=self.machine.sram_bytes_per_tile(),
            epochs=epochs,
            outputs={name: array.copy() for name, array in self.machine.arrays.items()},
            num_edges=self.machine.graph.num_edges,
            num_vertices=self.machine.graph.num_vertices,
            depth=self.config.depth,
            network_bound_cycles=self.link_model.network_bound_cycles(),
        )
        return result

    def run(self) -> SimulationResult:  # pragma: no cover - overridden
        raise NotImplementedError

"""Shared logic between the analytical and cycle simulation engines.

Both engines execute the same task programs functionally (so algorithm outputs
are identical and can be validated against the sequential references); they
differ only in how tasks run and how cycles are attributed.  The analytic
engine runs every task through its kernel's batch handlers; the cycle engine
runs the scalar task handlers, one pooled
:class:`~repro.core.context.TaskContext` per execution.  This base class owns
what both share: the traffic/energy accounting, epoch seeding and the
assembly of the :class:`~repro.core.results.SimulationResult`.

All per-tile accounting goes through the machine's columnar
:class:`~repro.core.state.CoreState` (flat arrays indexed by tile id) rather
than per-tile objects, and one :class:`~repro.core.context.MemoryTables`
prices every access count for both engines: one memory-cost definition for
every path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.batch import Seed
from repro.core.context import MemoryTables
from repro.core.results import AggregateCounters, SimulationResult
from repro.core.task import Task
from repro.errors import SimulationError
from repro.noc.analytical import LinkLoadModel
from repro.telemetry import get_telemetry
from repro.verify.tracing import InvariantTracer

#: Above this tile count the analytical engine switches the link-load model to
#: its aggregate (non-per-link) mode to keep simulation time reasonable.
DETAILED_LINK_MODEL_MAX_TILES = 2048


class BaseEngine:
    """Accounting, seeding and result assembly shared by both engines."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.config = machine.config
        self.program = machine.program
        self.placement = machine.placement
        self.topology = machine.topology
        self.state = machine.state
        self.kernel = machine.kernel
        self.counters = AggregateCounters()
        detailed = machine.config.num_tiles <= DETAILED_LINK_MODEL_MAX_TILES
        self.link_model = LinkLoadModel(self.topology, detailed=detailed)
        self.tile_pitch_mm = machine.tile_pitch_mm
        #: Per-access-count memory costs, shared by every context and batch.
        self.memory_tables = MemoryTables(self.config)
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

    # --------------------------------------------------------------- messages
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
    def initial_seeds(self) -> Optional[Seed]:
        """The kernel's first batch, or ``None`` when it seeds nothing."""
        return _nonempty(self.kernel.initial_tasks(self.machine.graph))

    def next_epoch_seeds(self, epoch_index: int) -> Optional[Seed]:
        """Ask the kernel for the next epoch's batch (barrier mode only);
        ``None`` when it has converged."""
        return _nonempty(self.kernel.next_epoch(self.machine, epoch_index))

    def resolve_seeds(self, seeds: Seed) -> Tuple[Task, np.ndarray, Tuple[np.ndarray, ...]]:
        """Find every seed's destination tile: ``(task, tiles, columns)``.

        The arity is checked once per batch, and one
        :meth:`~repro.core.placement.SpacePlacement.owners_of` call over the
        first column finds the tiles (an index outside the route space raises
        the ``PlacementError`` a per-seed ``owner`` call would).
        """
        task_name, columns = seeds
        task = self.program.task(task_name)
        if len(columns) != task.num_params:
            raise SimulationError(
                f"seed for task {task_name!r} has {len(columns)} parameters, "
                f"expected {task.num_params}"
            )
        columns = tuple(map(np.asarray, columns))
        tiles = self.placement.space(task.route_space).owners_of(columns[0])
        self.tracer.record_seeds(task, len(tiles))
        return task, tiles, columns

    def resolve_refill(self, tile_id: int) -> Optional[Tuple[Task, Tuple[np.ndarray, ...]]]:
        """Pull parked frontier work for one tile (barrierless mode):
        ``(task, columns)``, or ``None`` when the tile has none.

        The single refill path shared by both engines, so the invariant tracer
        sees every refill-origin spawn exactly once.
        """
        seeds = self.kernel.refill_tile(self.machine, tile_id, self.config.frontier_refill_batch)
        if seeds is None:
            return None
        task_name, columns = seeds
        count = len(columns[0])
        if not count:
            return None
        task = self.program.task(task_name)
        self.tracer.record_refill(task, count)
        return task, columns

    def charge_epoch_seeding(self, tiles: np.ndarray) -> np.ndarray:
        """Charge the per-vertex frontier re-exploration cost (the paper's T4)
        for seeds bound for ``tiles``.

        Returns the per-tile cycles charged so the caller can add them to the
        epoch's compute time.  The integer charges are exact in float64, so
        one ``bincount`` equals charging the seeds one at a time; the tile
        columns take them as one integer add, list or ndarray alike.
        """
        charged = np.bincount(tiles, minlength=self.config.num_tiles)
        charged *= self.config.epoch_seed_instructions
        self.counters.instructions += int(charged.sum())
        pu_instructions = self.state.pu_instructions
        pu_instructions[:] = np.add(pu_instructions, charged).tolist()
        return charged.astype(np.float64)

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


def _nonempty(seeds: Optional[Seed]) -> Optional[Seed]:
    """``seeds``, or ``None`` when there is no batch or it holds no invocation."""
    if seeds is None or (seeds[1] and not len(seeds[1][0])):
        return None
    return seeds

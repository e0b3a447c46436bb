"""Reference analytic engine: the per-invocation deque loop, kept as a test oracle.

``AnalyticalEngine`` drains every epoch over a worklist of same-task
segments, each executed as one batch through the kernel's batch handlers,
and charges each segment's messages to the link-load model with one
``record_batch`` call.  This module keeps the loop the segments replaced: a
FIFO deque of single invocations, each executed through the scalar task
handler in a pooled ``TaskContext`` (``execute_invocation``), each non-local
message charged with its own ``LinkLoadModel.record_message`` call, and the
epoch's seeds resolved, charged and refilled one ``(task_name, params)``
tuple at a time (``reference_loops.PerSeedSeeding``).  The tests compare the
production engine against it, bit for bit.
"""

from collections import deque
from itertools import compress
from typing import Tuple

import numpy as np

from repro.core.context import TaskContext, context_bindings
from repro.core.engine_analytic import AnalyticalEngine
from repro.core.task import Task
from repro.noc.analytical import LinkLoadModel
from tests.core.reference_loops import PerSeedSeeding, seed_tuples


class ReferenceAnalyticalEngine(PerSeedSeeding, AnalyticalEngine):
    """``AnalyticalEngine`` with the per-invocation deque epoch loop."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._context_pool = []
        self._bindings = context_bindings(machine)

    def _prepare_batch(self):
        # No batch handlers: the per-tile counters stay Python lists.
        return None

    def execute_invocation(
        self, tile_id: int, task: Task, params: tuple, remote: bool
    ) -> Tuple[TaskContext, float]:
        """Run one task handler functionally, count it into the machine-wide
        totals and return its context and cost; pass the context back to
        :meth:`release_context` once its ``outgoing`` list is consumed."""
        pool = self._context_pool
        ctx = pool.pop().reset(tile_id, task) if pool else TaskContext(
            self.machine, tile_id, task, self.memory_tables, self._bindings
        )
        task.handler(ctx, *params)
        cost = ctx.finish()
        self.tracer.record_execution(task, ctx.outgoing)
        counters = self.counters
        if remote and self.config.remote_invocation == "interrupting":
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

    def release_context(self, ctx: TaskContext) -> None:
        """Return a context to the pool for reuse by the next execution."""
        self._context_pool.append(ctx)

    def _run_epoch(self, seeds, epoch_index, average_hops):
        num_tiles = self.config.num_tiles
        epoch_busy = np.zeros(num_tiles, dtype=np.float64)
        epoch_link = LinkLoadModel(self.topology, detailed=self.link_model.detailed)
        tasks_this_epoch = 0
        max_generation = 0

        resolved = self.resolve_seeds(seed_tuples(seeds))
        if epoch_index > 0:
            epoch_busy += self.charge_epoch_seeding(resolved)

        state = self.state
        counters = self.counters
        worklist = deque(
            (tile_id, task, params, 0, False) for tile_id, task, params in resolved
        )
        while worklist or self._refill_items(worklist):
            tile_id, task, params, generation, remote = worklist.popleft()
            ctx, cost = self.execute_invocation(tile_id, task, params, remote)
            state.pu_busy_cycles[tile_id] += cost
            state.pu_instructions[tile_id] += ctx.instructions
            epoch_busy[tile_id] += cost
            tasks_this_epoch += 1
            for out_task, out_params, destination in ctx.outgoing:
                flits = out_task.flits_per_invocation
                counters.messages += 1
                counters.flits += flits
                if destination == tile_id:
                    counters.local_messages += 1
                else:
                    hops = epoch_link.record_message(
                        tile_id, destination, flits, self.tile_pitch_mm
                    )
                    counters.flit_hops += flits * hops
                    counters.router_traversals += flits * (hops + 1)
                next_generation = generation + 1
                if next_generation > max_generation:
                    max_generation = next_generation
                worklist.append(
                    (destination, out_task, out_params, next_generation, destination != tile_id)
                )
            self.release_context(ctx)

        self.link_model.merge(epoch_link)
        compute_bound = float(epoch_busy.max()) if len(epoch_busy) else 0.0
        return self._epoch_cycles(compute_bound, epoch_link, epoch_busy, tasks_this_epoch,
                                  max_generation, average_hops)

    def _refill_items(self, worklist: deque) -> bool:
        """Barrierless mode: pull parked frontier work once the worklist drains."""
        if self.machine.barrier_effective:
            return False
        items = [
            (tile_id, task, params, 0, False)
            for tile_id in compress(range(self.config.num_tiles), self.state.frontier)
            for task, params in self.resolve_refill(tile_id)
        ]
        worklist.extend(items)
        return bool(items)


def run_reference(machine, **run_kwargs):
    """``machine.run(**run_kwargs)`` on the reference engine."""
    machine._make_engine = lambda: ReferenceAnalyticalEngine(machine)
    return machine.run(**run_kwargs)

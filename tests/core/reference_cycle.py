"""Reference cycle engine: the dispatch-closure task core, kept as a test oracle.

``CycleEngine`` starts every task inside its one drain loop, writes the
per-task counter adds back once per drain, and sweeps idle tiles by
scheduling refill events.  This module keeps the core that replaced: every
task starts through a ``dispatch(tile, now)`` closure built once per run,
runs through ``execute_invocation`` and is counted by ``account_context``
one task at a time, and the barrierless sweep refills and dispatches each
idle tile directly.  The methods are the ones the production engine
replaced, less their telemetry.  The tests compare the production engine
against it, bit for bit.
"""

import heapq
from itertools import compress
from typing import Callable, List, Optional, Tuple

from repro.core import engine_cycle
from repro.core.context import TaskContext
from repro.core.engine_base import Seed
from repro.core.engine_cycle import _COMPLETE, _KIND_SHIFT, _REFILL, CycleEngine
from repro.core.results import SimulationResult
from repro.core.task import Task
from repro.errors import SimulationError


class ReferenceCycleEngine(CycleEngine):
    """``CycleEngine`` with the dispatch closure and per-task accounting."""

    def run(self) -> SimulationResult:
        epoch_index = 0
        time_base = 0.0
        seeds: Optional[List[Seed]] = list(self.kernel.initial_tasks(self.machine.graph))
        dispatch = self._dispatcher()

        while seeds:
            self._inject_seeds(seeds, time_base, charge=epoch_index > 0)
            self._drain_events(dispatch)
            if not self.machine.barrier_effective:
                # Barrierless mode: any work still parked in local frontiers is
                # pulled as soon as its tile idles (no global synchronization).
                while self._refill_idle_tiles(self._last_event_time, dispatch):
                    self._drain_events(dispatch)
            self.tracer.epoch_finished(epoch_index, self.counters)
            epoch_index += 1
            if not self.machine.barrier_effective:
                break
            if epoch_index >= self.config.max_epochs:
                raise SimulationError(
                    f"exceeded max_epochs={self.config.max_epochs}; "
                    "the kernel is not converging"
                )
            seeds = self.next_epoch_seeds(epoch_index)
            if seeds:
                time_base = (
                    self._last_event_time
                    + self.config.barrier_latency_cycles
                    + self.topology.diameter()
                )

        cycles = max(self._last_event_time, 1.0)
        return self.build_result(cycles, epochs=epoch_index)

    # -------------------------------------------------------------- execution
    def execute_invocation(
        self, tile_id: int, task: Task, params: tuple, remote: bool
    ) -> Tuple[TaskContext, float]:
        pool = self._context_pool
        ctx = pool.pop().reset(tile_id, task) if pool else TaskContext(
            self.machine, tile_id, task, self.memory_tables
        )
        task.handler(ctx, *params)
        cost = ctx.finish()
        self.tracer.record_execution(task, ctx.outgoing)
        if remote and self._interrupting:
            cost += self.config.interrupt_penalty_cycles
            self.counters.remote_interrupts += 1
        return ctx, cost

    def account_context(self, ctx: TaskContext) -> None:
        """Fold one task execution's counters into the machine-wide totals."""
        counters = self.counters
        counters.instructions += ctx.instructions
        counters.tasks_executed += 1
        counters.sram_reads += ctx.sram_reads
        counters.sram_writes += ctx.sram_writes
        counters.dram_accesses += ctx.dram_accesses
        counters.cache_hits += ctx.cache_hits
        counters.edges_processed += ctx.edges

    # --------------------------------------------------------------- dispatch
    def _dispatcher(self) -> Callable[[int, float], None]:
        state = self.state
        pending = state.pending
        select_task = state.select_task
        pop_invocation = state.pop_invocation
        busy = state.busy
        refill_pending = state.refill_pending
        pu_busy_until = state.pu_busy_until
        pu_busy_cycles = state.pu_busy_cycles
        pu_instructions = state.pu_instructions
        task_table = self.task_table
        execute_invocation = self.execute_invocation
        account_context = self.account_context
        heap = self._heap
        sequence = self._sequence
        heappush = heapq.heappush
        barrierless = not self.machine.barrier_effective
        refill_delay = self.config.frontier_refill_delay_cycles
        complete_kind = _COMPLETE << _KIND_SHIFT
        refill_kind = _REFILL << _KIND_SHIFT

        def dispatch(tile: int, now: float) -> None:
            if not pending[tile]:
                if barrierless and not refill_pending[tile]:
                    refill_pending[tile] = True
                    heappush(heap, (now + refill_delay, refill_kind | next(sequence), tile))
                return
            task_id = select_task(tile)
            params, remote = pop_invocation(tile, task_id)
            ctx, cost = execute_invocation(tile, task_table[task_id], params, remote)
            account_context(ctx)
            busy_until = pu_busy_until[tile]
            completion = (busy_until if busy_until > now else now) + cost
            pu_busy_until[tile] = completion
            pu_busy_cycles[tile] += cost
            pu_instructions[tile] += ctx.instructions
            busy[tile] = True
            heappush(heap, (completion, complete_kind | next(sequence), (tile, ctx)))

        return dispatch

    # ----------------------------------------------------------------- events
    def _drain_events(self, dispatch: Callable[[int, float], None]) -> None:
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        sequence = self._sequence
        state = self.state
        push_invocation = state.push_invocation
        pending = state.pending
        busy = state.busy
        refill_pending = state.refill_pending
        release = self._context_pool.append
        send = self.network.send
        counters = self.counters
        sent_src, sent_dst, sent_flits = self._sent_src, self._sent_dst, self._sent_flits
        fold_messages = engine_cycle.TRAFFIC_FOLD_MESSAGES
        complete_kind = _COMPLETE << _KIND_SHIFT
        refill_kind = _REFILL << _KIND_SHIFT
        last = self._last_event_time
        while heap:
            time, key, payload = heappop(heap)
            if time > last:
                last = time
            if key < complete_kind:
                tile, task_id, params, remote = payload
                push_invocation(tile, task_id, (params, remote))
                if not busy[tile]:
                    dispatch(tile, time)
            elif key < refill_kind:
                tile, ctx = payload
                busy[tile] = False
                outgoing = ctx.outgoing
                flits_out = local = 0
                for task, params, destination in outgoing:
                    flits = task.flits_per_invocation
                    flits_out += flits
                    if destination == tile:
                        local += 1
                        push_invocation(tile, task.task_id, (params, False))
                    else:
                        sent_src.append(tile)
                        sent_dst.append(destination)
                        sent_flits.append(flits)
                        heappush(heap, (
                            send(tile, destination, flits, time),
                            next(sequence),
                            (destination, task.task_id, params, True),
                        ))
                counters.messages += len(outgoing)
                counters.flits += flits_out
                counters.local_messages += local
                release(ctx)
                if len(sent_src) >= fold_messages:
                    self._fold_traffic()
                dispatch(tile, time)
            else:
                tile = payload
                refill_pending[tile] = False
                if not busy[tile] and not pending[tile] and self._refill_tile(tile):
                    dispatch(tile, time)
        self._last_event_time = last
        self._fold_traffic()

    def _refill_idle_tiles(self, now: float, dispatch: Callable[[int, float], None]) -> bool:
        state = self.state
        busy, pending = state.busy, state.pending
        refilled = False
        for tile_id in compress(range(self.config.num_tiles), state.frontier):
            if not busy[tile_id] and not pending[tile_id] and self._refill_tile(tile_id):
                refilled = True
                dispatch(tile_id, now)
        return refilled


def run_reference(machine, **run_kwargs):
    """``machine.run(**run_kwargs)`` on the reference engine."""
    machine._make_engine = lambda: ReferenceCycleEngine(machine)
    return machine.run(**run_kwargs)

"""Event-driven cycle engine: TSU scheduling, PU occupancy and link contention.

The engine keeps an event heap of task completions and message deliveries.
A tile's TSU picks the next ready task (round-robin or occupancy priority) only
when the PU is idle; a task executes from beginning to end (tasks never block),
then its outgoing messages traverse the NoC through the configured
:mod:`~repro.core.network` model: the analytical model charges per-link
serialization with persistent busy times (so congestion builds up exactly
where traffic concentrates -- the effect visible in the paper's Fig. 10
heatmaps), while ``network="simulated"`` adds finite router input queues,
credit backpressure and pluggable routing via the flit-level
:class:`~repro.noc.sim.simulator.NocSimulator`.

Only timing stays per message.  Link-load accounting never feeds the
schedule, so non-local messages are logged in send order and charged to the
link-load model in bulk, at the end of every drain (see ``_fold_traffic``).

Remote invocations are non-interrupting when the TSU is present and add the
configured interrupt penalty in the Tesseract-style baseline.  Barriered
executions wait for global idle, add the idle-detection/broadcast latency, and
re-seed the next epoch from the kernel (the paper's per-epoch frontier swap).

The per-task core is lean.  An invocation is a plain tuple: a delivery's heap
payload is ``(tile, task_id, params, remote)`` and a queued invocation is
``(params, remote)`` in its tile's :class:`~repro.core.state.CoreState`
queue.  Heap entries are ``(time, key, payload)`` tuples where ``key`` packs
the event kind and a monotonically increasing sequence number into one
integer (``kind << 60 | seq``), preserving the historical (time, kind, seq)
ordering -- deliveries before completions before refills at equal
timestamps.  The drain loop handles deliveries and completions itself and
starts tasks through one dispatch function; both read the run's state (heap,
queues, busy and PU columns, context pool, the network's ``send``, counters)
from locals bound once, and the dispatch function is never stored on the
engine, so a finished engine is freed without the cyclic collector.
"""

from __future__ import annotations

import heapq
from itertools import compress, count
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.engine_base import BaseEngine, Seed
from repro.core.network import make_network_model
from repro.core.results import SimulationResult
from repro.errors import SimulationError

# Event kinds, ordered so deliveries at a timestamp happen before completions.
# A delivery's key is its bare sequence number (kind 0).
_DELIVER = 0
_COMPLETE = 1
_REFILL = 2

#: Bit position of the event kind inside a heap key (seq stays below 2**60).
_KIND_SHIFT = 60

#: Logged non-local messages that trigger a fold into the link-load model
#: before the drain ends, bounding the log on long barrierless drains.
TRAFFIC_FOLD_MESSAGES = 4096


class CycleEngine(BaseEngine):
    """Event-driven engine for detailed runs on small and medium grids."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._heap: List[Tuple[float, int, object]] = []
        self._sequence = count(1)
        # Message timing is delegated to the configured network model
        # (analytical link serialization, or the flit-level simulator with
        # finite queues).  Published on the machine -- like the tracer -- so
        # the conformance network oracle can inspect it after run().  The
        # model shares the machine's columnar state (NoC port arrays).
        self.network = make_network_model(self.config, self.topology, state=self.state)
        machine.network = self.network
        self._last_event_time = 0.0
        # Non-local messages sent since the last _fold_traffic, in send order.
        self._sent_src: List[int] = []
        self._sent_dst: List[int] = []
        self._sent_flits: List[int] = []

    # ------------------------------------------------------------------ run
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

    # ------------------------------------------------------------------ seeds
    def _inject_seeds(self, seeds: List[Seed], time_base: float, charge: bool) -> None:
        resolved = self.resolve_seeds(seeds)
        if charge:
            self.charge_epoch_seeding(resolved)
        heap, sequence = self._heap, self._sequence
        for tile_id, task, params in resolved:
            heapq.heappush(
                heap, (time_base, next(sequence), (tile_id, task.task_id, params, False))
            )

    # --------------------------------------------------------------- dispatch
    def _dispatcher(self) -> Callable[[int, float], None]:
        """The run's dispatch function: ``dispatch(tile, now)`` for an idle PU.

        It starts the task the tile's TSU selects, or -- on a tile with
        nothing queued -- schedules a refill in barrierless mode.  The state
        it reads is bound once here; the caller keeps the function in a
        local, never on the engine, so no engine -> closure -> engine cycle
        outlives the run.
        """
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
                # The tile is idle: schedule a low-priority pull from its local
                # frontier (the paper's T4 draining the bitmap under TSU
                # control).  The delay models T4's low priority: in-flight
                # updates get a chance to land before the vertex is
                # re-explored, preserving work efficiency.
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
        """Run events until the heap is empty.

        A delivery queues its invocation and dispatches an idle tile.  A
        completion frees the PU, emits the task's outputs -- local ones
        straight into the tile's queues, the rest through the network
        model as deliveries, logged for :meth:`_fold_traffic` -- and
        dispatches the tile again.  A refill pulls local frontier work.
        """
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
        fold_messages = TRAFFIC_FOLD_MESSAGES
        complete_kind = _COMPLETE << _KIND_SHIFT
        refill_kind = _REFILL << _KIND_SHIFT
        last = self._last_event_time
        # Telemetry is observed in plain locals and flushed once after the
        # loop: with observability off the per-event overhead is a single
        # local-bool branch, and either way the event order is untouched.
        telemetry_on = self.telemetry.enabled
        events = [0, 0, 0]
        peak_heap_depth = len(heap)
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
                        # Delivery time of one message, per the network model.
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
            else:  # refill: low-priority local frontier drain (paper's T4)
                tile = payload
                refill_pending[tile] = False
                if not busy[tile] and not pending[tile] and self._refill_tile(tile):
                    dispatch(tile, time)
            if telemetry_on:
                events[key >> _KIND_SHIFT] += 1
                if len(heap) > peak_heap_depth:
                    peak_heap_depth = len(heap)
        self._last_event_time = last
        self._fold_traffic()
        if telemetry_on and any(events):
            telemetry = self.telemetry
            for kind, name in enumerate(("deliver", "complete", "refill")):
                telemetry.count("engine.cycle.events", events[kind], kind=name)
            telemetry.gauge("engine.cycle.heap_depth_peak", peak_heap_depth)
            telemetry.observe("engine.cycle.heap_depth", peak_heap_depth)

    def _refill_idle_tiles(self, now: float, dispatch: Callable[[int, float], None]) -> bool:
        """Give every idle tile work from its local frontier; True if any refilled.

        :meth:`~repro.apps.common.Kernel.refill_tile` draws only from a
        tile's ``state.frontier`` bucket, so only the tiles whose bucket
        holds work are visited, in tile order.
        """
        state = self.state
        busy, pending = state.busy, state.pending
        refilled = False
        for tile_id in compress(range(self.config.num_tiles), state.frontier):
            if not busy[tile_id] and not pending[tile_id] and self._refill_tile(tile_id):
                refilled = True
                dispatch(tile_id, now)
        return refilled

    def _refill_tile(self, tile_id: int) -> bool:
        resolved = self.resolve_refill(tile_id)
        push_invocation = self.state.push_invocation
        for task, params in resolved:
            push_invocation(tile_id, task.task_id, (params, False))
        return bool(resolved)

    def _fold_traffic(self) -> None:
        """Charge the logged non-local messages to the link-load model with
        one :meth:`~repro.core.engine_base.BaseEngine.charge_messages` call."""
        if not self._sent_src:
            return
        self.charge_messages(
            self.link_model,
            np.array(self._sent_src, dtype=np.int64),
            np.array(self._sent_dst, dtype=np.int64),
            np.array(self._sent_flits, dtype=np.int64),
        )
        self._sent_src.clear()
        self._sent_dst.clear()
        self._sent_flits.clear()

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

Hot-path representation (the columnar-core refactor): pending invocations are
integer handles into the machine state's :class:`~repro.core.state.RecordPool`
(destination tile, task id, params, remote flag in parallel arrays); tile
queues are deques of those handles inside :class:`~repro.core.state.CoreState`;
and heap entries are ``(time, key, payload)`` tuples where ``key`` packs the
event kind and a monotonically increasing sequence number into one integer
(``kind << 60 | seq``), preserving the historical (time, kind, seq) ordering
-- deliveries before completions before refills at equal timestamps -- while
keeping comparisons cheap and payloads unallocated.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.core.engine_base import BaseEngine, Seed
from repro.core.network import make_network_model
from repro.core.registry import register_engine
from repro.core.results import SimulationResult
from repro.errors import SimulationError

# Event kinds, ordered so deliveries at a timestamp happen before completions.
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
        self._sequence = 0
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

    # ------------------------------------------------------------------- heap
    def _push(self, time: float, kind: int, payload) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (time, (kind << _KIND_SHIFT) | self._sequence, payload))

    # ------------------------------------------------------------------ run
    def run(self) -> SimulationResult:
        epoch_index = 0
        time_base = 0.0
        seeds: Optional[List[Seed]] = list(self.kernel.initial_tasks(self.machine.graph))

        while seeds:
            self._inject_seeds(seeds, time_base, charge=epoch_index > 0)
            self._drain_events()
            if not self.machine.barrier_effective:
                # Barrierless mode: any work still parked in local frontiers is
                # pulled as soon as its tile idles (no global synchronization).
                while self._refill_idle_tiles(self._last_event_time):
                    self._drain_events()
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
        records = self.state.records
        for tile_id, task, params in resolved:
            handle = records.alloc(tile_id, task.task_id, params, False)
            self._push(time_base, _DELIVER, handle)

    # ----------------------------------------------------------------- events
    def _drain_events(self) -> None:
        heap = self._heap
        state = self.state
        push_invocation = state.push_invocation
        records = state.records
        busy = state.busy
        last = self._last_event_time
        # Telemetry is observed in plain locals and flushed once after the
        # loop: with observability off the per-event overhead is a single
        # local-bool branch, and either way the event order is untouched.
        telemetry_on = self.telemetry.enabled
        deliver_count = complete_count = refill_count = 0
        peak_heap_depth = len(heap)
        while heap:
            time, key, payload = heapq.heappop(heap)
            if time > last:
                last = time
            kind = key >> _KIND_SHIFT
            if kind == _DELIVER:
                if telemetry_on:
                    deliver_count += 1
                tile_id = records.tile[payload]
                push_invocation(tile_id, records.task[payload], payload)
                if not busy[tile_id]:
                    self._try_dispatch(tile_id, time)
            elif kind == _COMPLETE:
                if telemetry_on:
                    complete_count += 1
                tile_id, ctx = payload
                busy[tile_id] = False
                self._emit_outputs(tile_id, ctx, time)
                self._try_dispatch(tile_id, time)
            else:  # _REFILL: low-priority local frontier drain (paper's T4)
                if telemetry_on:
                    refill_count += 1
                tile_id = payload
                state.refill_pending[tile_id] = False
                if not busy[tile_id] and state.tile_is_idle(tile_id):
                    if self._refill_tile(tile_id, time):
                        self._try_dispatch(tile_id, time)
            if telemetry_on and len(heap) > peak_heap_depth:
                peak_heap_depth = len(heap)
        self._last_event_time = last
        self._fold_traffic()
        if telemetry_on and (deliver_count or complete_count or refill_count):
            telemetry = self.telemetry
            telemetry.count("engine.cycle.events", deliver_count, kind="deliver")
            telemetry.count("engine.cycle.events", complete_count, kind="complete")
            telemetry.count("engine.cycle.events", refill_count, kind="refill")
            telemetry.gauge("engine.cycle.heap_depth_peak", peak_heap_depth)
            telemetry.observe("engine.cycle.heap_depth", peak_heap_depth)

    def _refill_idle_tiles(self, now: float) -> bool:
        """Give every idle tile work from its local frontier; True if any refilled."""
        refilled = False
        state = self.state
        for tile_id in range(self.config.num_tiles):
            if not state.busy[tile_id] and state.tile_is_idle(tile_id):
                if self._refill_tile(tile_id, now):
                    refilled = True
                    self._try_dispatch(tile_id, now)
        return refilled

    def _refill_tile(self, tile_id: int, now: float) -> bool:
        resolved = self.resolve_refill(tile_id)
        if not resolved:
            return False
        state = self.state
        for task, params in resolved:
            handle = state.records.alloc(tile_id, task.task_id, params, False)
            state.push_invocation(tile_id, task.task_id, handle)
        return True

    def _try_dispatch(self, tile_id: int, now: float) -> None:
        state = self.state
        if state.busy[tile_id]:
            return
        task_id = state.select_task(tile_id)
        if task_id is None and not self.machine.barrier_effective:
            # The tile is idle: schedule a low-priority pull from its local
            # frontier (the paper's T4 draining the bitmap under TSU control).
            # The delay models T4's low priority: in-flight updates get a chance
            # to land before the vertex is re-explored, preserving work efficiency.
            if not state.refill_pending[tile_id]:
                state.refill_pending[tile_id] = True
                self._push(
                    now + self.config.frontier_refill_delay_cycles, _REFILL, tile_id
                )
            return
        if task_id is None:
            return
        records = state.records
        handle = state.pop_invocation(tile_id, task_id)
        params = records.params[handle]
        remote = records.remote[handle]
        records.release(handle)
        task = self.task_table[task_id]
        ctx, cost = self.execute_invocation(tile_id, task, params, remote)
        self.account_context(ctx)
        busy_until = state.pu_busy_until[tile_id]
        start = busy_until if busy_until > now else now
        completion = start + cost
        state.pu_busy_until[tile_id] = completion
        state.pu_busy_cycles[tile_id] += cost
        state.pu_instructions[tile_id] += ctx.instructions
        state.busy[tile_id] = True
        self._push(completion, _COMPLETE, (tile_id, ctx))

    def _emit_outputs(self, tile_id: int, ctx, now: float) -> None:
        state = self.state
        records = state.records
        network_send = self.network.send
        sent_src, sent_dst, sent_flits = self._sent_src, self._sent_dst, self._sent_flits
        outgoing = ctx.outgoing
        flits_out = local = 0
        for task, params, destination in outgoing:
            flits = task.flits_per_invocation
            flits_out += flits
            if destination == tile_id:
                local += 1
                handle = records.alloc(tile_id, task.task_id, params, False)
                state.push_invocation(tile_id, task.task_id, handle)
            else:
                sent_src.append(tile_id)
                sent_dst.append(destination)
                sent_flits.append(flits)
                # Delivery time of one message, per the configured network model.
                arrival = network_send(tile_id, destination, flits, now)
                handle = records.alloc(destination, task.task_id, params, True)
                self._push(arrival, _DELIVER, handle)
        counters = self.counters
        counters.messages += len(outgoing)
        counters.flits += flits_out
        counters.local_messages += local
        self.release_context(ctx)
        if len(sent_src) >= TRAFFIC_FOLD_MESSAGES:
            self._fold_traffic()

    def _fold_traffic(self) -> None:
        """Charge the logged non-local messages to the link-load model.

        One :meth:`~repro.noc.analytical.LinkLoadModel.record_batch` call in
        send order, bit-equal to one ``record_message`` per message, then
        the flit-hop and router-traversal counters from its hops.
        """
        if not self._sent_src:
            return
        flits = np.array(self._sent_flits, dtype=np.int64)
        hops = self.link_model.record_batch(
            np.array(self._sent_src, dtype=np.int64),
            np.array(self._sent_dst, dtype=np.int64),
            flits,
            self.tile_pitch_mm,
        )
        flit_hops = int(flits @ hops)
        self.counters.flit_hops += flit_hops
        self.counters.router_traversals += flit_hops + int(flits.sum())
        self._sent_src.clear()
        self._sent_dst.clear()
        self._sent_flits.clear()


register_engine("cycle", CycleEngine)

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
timestamps.  The drain loop is the only place a task starts: a delivery to
an idle tile, a completion and a refill fall through to one start block.
The loop reads the run's state (heap, queues, busy and PU columns, context
pool, the network's ``send``) from locals bound once per drain, and keeps
the per-task counter adds in locals written back once per drain.
"""

from __future__ import annotations

import heapq
from itertools import compress, count
from typing import List, Tuple

import numpy as np

from repro.core.batch import Seed
from repro.core.context import TaskContext, context_bindings
from repro.core.engine_base import BaseEngine
from repro.core.network import make_network_model
from repro.core.results import SimulationResult
from repro.core.task import Task
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
        # Kernel dispatch table: task_id -> Task, indexed on every dispatch.
        self.task_table = self.program.dispatch_table()
        # Pool of reusable task contexts (the engine holds one per busy tile).
        self._context_pool: List[TaskContext] = []
        #: The per-machine lookups every pooled context shares.
        self.context_bindings = context_bindings(machine)
        self._interrupting = self.config.remote_invocation == "interrupting"
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
        seeds = self.initial_seeds()

        while seeds:
            self._inject_seeds(seeds, time_base, charge=epoch_index > 0)
            self._drain_events()
            if not self.machine.barrier_effective:
                # Barrierless mode: any work still parked in local frontiers is
                # pulled as soon as its tile idles (no global synchronization),
                # until a sweep starts nothing.
                while self._refill_idle_tiles(self._last_event_time):
                    if not self._drain_events():
                        break
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

    def new_context(self, tile_id: int, task: Task) -> TaskContext:
        """A context for the pool, sharing the engine's tables and bindings."""
        return TaskContext(
            self.machine, tile_id, task, self.memory_tables, self.context_bindings
        )

    # ------------------------------------------------------------------ seeds
    def _inject_seeds(self, seeds: Seed, time_base: float, charge: bool) -> None:
        """Deliver one batch at ``time_base``, a delivery per seed in batch
        order, each carrying its parameters as a tuple of Python scalars."""
        task, tiles, columns = self.resolve_seeds(seeds)
        if charge:
            self.charge_epoch_seeding(tiles)
        heap, sequence = self._heap, self._sequence
        task_id = task.task_id
        for tile_id, params in zip(tiles.tolist(), zip(*(column.tolist() for column in columns))):
            heapq.heappush(heap, (time_base, next(sequence), (tile_id, task_id, params, False)))

    # ----------------------------------------------------------------- events
    def _drain_events(self) -> int:
        """Run events until the heap is empty; return how many tasks started.

        A delivery queues its invocation.  A completion frees the PU and
        emits the task's outputs -- local ones straight into the tile's
        queues, the rest through the network model as deliveries, logged
        for :meth:`_fold_traffic`.  A refill pulls local frontier work into
        an idle tile's queues.  A delivery to an idle tile, a completion and
        a successful refill then fall through to the one place a task
        starts: the tile's TSU picks a queued task (or, on a tile with
        nothing queued, schedules a refill in barrierless mode), which runs
        in a pooled context and pushes its completion.

        The per-task counter adds never feed the schedule, so they
        accumulate in locals and are written back once, after the loop; the
        float counters keep their start-order additions.  The state is
        bound in locals once per drain, never on the engine, so a finished
        engine is freed without the cyclic collector.
        """
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        sequence = self._sequence
        state = self.state
        push_invocation = state.push_invocation
        select_task = state.select_task
        queues = state.queues
        queue_popped = state.queue_popped
        num_tasks = state.num_tasks
        round_robin = state.round_robin
        tsu_cursor = state.tsu_cursor
        pending = state.pending
        busy = state.busy
        refill_pending = state.refill_pending
        pu_busy_until = state.pu_busy_until
        pu_busy_cycles = state.pu_busy_cycles
        pu_instructions = state.pu_instructions
        task_table = self.task_table
        pool = self._context_pool
        release = pool.append
        new_context = self.new_context
        send = self.network.send
        sent_src, sent_dst, sent_flits = self._sent_src, self._sent_dst, self._sent_flits
        fold_messages = TRAFFIC_FOLD_MESSAGES
        barrierless = not self.machine.barrier_effective
        refill_delay = self.config.frontier_refill_delay_cycles
        interrupting = self._interrupting
        interrupt_penalty = self.config.interrupt_penalty_cycles
        tracer = self.tracer
        trace_each = tracer.detailed
        record_execution = tracer.record_execution
        counters = self.counters
        complete_kind = _COMPLETE << _KIND_SHIFT
        refill_kind = _REFILL << _KIND_SHIFT
        last = self._last_event_time
        # Per-drain counter deltas; the floats continue the running totals.
        tasks = instructions = sram_reads = sram_writes = edges = interrupts = 0
        messages = flits_sent = local_messages = spawned = 0
        dram_accesses, cache_hits = counters.dram_accesses, counters.cache_hits
        while heap:
            time, key, payload = heappop(heap)
            if time > last:
                last = time
            if key < complete_kind:
                tile, task_id, params, remote = payload
                push_invocation(tile, task_id, (params, remote))
                if busy[tile]:
                    continue
            elif key < refill_kind:
                tile, ctx = payload
                busy[tile] = False
                outgoing = ctx.outgoing
                messages += len(outgoing)
                for task, params, destination in outgoing:
                    flits = task.flits_per_invocation
                    flits_sent += flits
                    if destination == tile:
                        local_messages += 1
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
                release(ctx)
                if len(sent_src) >= fold_messages:
                    self._fold_traffic()
            else:  # refill: low-priority local frontier drain (paper's T4)
                tile = payload
                refill_pending[tile] = False
                if busy[tile] or pending[tile] or not self._refill_tile(tile):
                    continue

            # Start the next task on the idle tile.
            queued = pending[tile]
            if not queued:
                # The tile is idle: schedule a low-priority pull from its local
                # frontier (the paper's T4 draining the bitmap under TSU
                # control).  The delay models T4's low priority: in-flight
                # updates get a chance to land before the vertex is
                # re-explored, preserving work efficiency.
                if barrierless and not refill_pending[tile]:
                    refill_pending[tile] = True
                    heappush(heap, (time + refill_delay, refill_kind | next(sequence), tile))
                continue
            base = tile * num_tasks
            task_id = 0
            queue = queues[base]
            while not queue:
                task_id += 1
                queue = queues[base + task_id]
            if len(queue) == queued:
                # The lone ready task, picked as CoreState.select_task does.
                if round_robin:
                    cursor = tsu_cursor[tile]
                    tsu_cursor[tile] = cursor + (task_id - cursor) % num_tasks + 1
            else:
                task_id = select_task(tile)
                queue = queues[base + task_id]
            params, remote = queue.popleft()
            queue_popped[base + task_id] += 1
            pending[tile] = queued - 1
            task = task_table[task_id]
            ctx = pool.pop().reset(tile, task) if pool else new_context(tile, task)
            task.handler(ctx, *params)
            cost = ctx.finish()
            if trace_each:
                record_execution(task, ctx.outgoing)
            else:
                spawned += len(ctx.outgoing)
            if remote and interrupting:
                cost += interrupt_penalty
                interrupts += 1
            task_instructions = ctx.instructions
            tasks += 1
            instructions += task_instructions
            sram_reads += ctx.sram_reads
            sram_writes += ctx.sram_writes
            dram_accesses += ctx.dram_accesses
            cache_hits += ctx.cache_hits
            edges += ctx.edges
            busy_until = pu_busy_until[tile]
            completion = (busy_until if busy_until > time else time) + cost
            pu_busy_until[tile] = completion
            pu_busy_cycles[tile] += cost
            pu_instructions[tile] += task_instructions
            busy[tile] = True
            heappush(heap, (completion, complete_kind | next(sequence), (tile, ctx)))

        self._last_event_time = last
        counters.tasks_executed += tasks
        counters.instructions += instructions
        counters.sram_reads += sram_reads
        counters.sram_writes += sram_writes
        counters.dram_accesses = dram_accesses
        counters.cache_hits = cache_hits
        counters.edges_processed += edges
        counters.remote_interrupts += interrupts
        counters.messages += messages
        counters.flits += flits_sent
        counters.local_messages += local_messages
        if not trace_each:
            tracer.record_executions(tasks, spawned)
        self._fold_traffic()
        return tasks

    def _refill_idle_tiles(self, now: float) -> bool:
        """Schedule a refill event at ``now`` for every tile whose local
        frontier holds work; True if any was scheduled.

        :meth:`~repro.apps.common.Kernel.refill_tile` draws only from a
        tile's ``state.frontier`` bucket, so only the tiles whose bucket
        holds work are visited, in tile order.  The sweep runs on an empty
        heap, so no tile is busy or has work queued, and the events pop in
        tile order: each refills and starts its tile before the next one
        pops, since a started task completes at least one cycle later (every
        built-in handler accesses memory).
        """
        heap, sequence = self._heap, self._sequence
        refill_kind = _REFILL << _KIND_SHIFT
        scheduled = False
        for tile_id in compress(range(self.config.num_tiles), self.state.frontier):
            heapq.heappush(heap, (now, refill_kind | next(sequence), tile_id))
            scheduled = True
        return scheduled

    def _refill_tile(self, tile_id: int) -> bool:
        refill = self.resolve_refill(tile_id)
        if refill is None:
            return False
        task, columns = refill
        push_invocation = self.state.push_invocation
        for params in zip(*(column.tolist() for column in columns)):
            push_invocation(tile_id, task.task_id, (params, False))
        return True

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

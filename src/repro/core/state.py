"""Columnar (structure-of-arrays) per-tile state of one simulated machine.

The paper's tile is a processing unit, a task scheduling unit, a scratchpad
and one input queue per task.  :class:`CoreState` is the simulator's only
per-tile state: flat parallel arrays indexed by tile id (and, for queues, by
``tile * num_tasks + task``):

* PU occupancy and accounting (``pu_busy_until``, ``pu_busy_cycles``,
  ``pu_instructions``), which the result's utilization and heatmaps read;
* task input queues (one deque of ``(params, remote)`` invocations per
  tile x task, created on the queue's first push) with the
  push/pop/high-water statistics the invariant tracer checks, and a
  per-tile count of pending invocations;
* the TSU's round-robin cursors;
* per-tile local frontier buckets (the paper's T3 -> T4 hand-off);
* the NoC interface port state shared with the flit-level simulator
  (``noc_inject_free`` / ``noc_eject_free``).

Task ids are dense (``0..K-1``, assigned by the program), so a task id is its
queue column.  ``tests/core/test_state.py`` pins :meth:`CoreState.select_task`
against an object-shaped task scheduling unit kept in the tests as an oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Union

from repro.errors import ConfigurationError

#: Scheduling policies understood by :meth:`CoreState.select_task`.
ROUND_ROBIN = "round_robin"
OCCUPANCY = "occupancy"

#: The slot of a queue never pushed: empty and shared, so a machine holds a
#: deque only where work was queued (the analytic engine never queues).
NEVER_PUSHED = ()


class CoreState:
    """All mutable per-tile simulation state, as flat parallel arrays.

    Args:
        num_tiles: number of tiles (rows of every per-tile array).
        iq_capacities: input-queue capacity per task id; the ids must be the
            dense ``0..K-1`` a :class:`~repro.core.program.DalorexProgram`
            assigns.
        scheduling_policy: ``"occupancy"`` or ``"round_robin"``.
        high_threshold: input-queue fill fraction at which the occupancy
            policy gives a task high priority.
    """

    def __init__(
        self,
        num_tiles: int,
        iq_capacities: Dict[int, int],
        scheduling_policy: str = OCCUPANCY,
        high_threshold: float = 0.75,
    ) -> None:
        if scheduling_policy not in (ROUND_ROBIN, OCCUPANCY):
            raise ConfigurationError(
                f"unknown scheduling policy {scheduling_policy!r}; "
                f"expected one of ({ROUND_ROBIN!r}, {OCCUPANCY!r})"
            )
        if sorted(iq_capacities) != list(range(len(iq_capacities))):
            raise ConfigurationError(
                f"task ids must be dense 0..K-1, got {sorted(iq_capacities)}"
            )
        self.num_tiles = num_tiles
        self.num_tasks = len(iq_capacities)
        self.scheduling_policy = scheduling_policy
        self.round_robin = scheduling_policy == ROUND_ROBIN
        self.high_threshold = high_threshold
        #: capacity per task (identical across tiles).
        self.queue_capacity = [iq_capacities[task] for task in range(self.num_tasks)]

        slots = num_tiles * self.num_tasks
        # Task input queues: deques of ``(params, remote)`` invocations, each
        # created on its first push, with the push/pop totals and high-water
        # marks the invariant tracer checks.
        self.queues: List[Union[deque, tuple]] = [NEVER_PUSHED] * slots
        self.queue_pushed = [0] * slots
        self.queue_popped = [0] * slots
        self.queue_max_occupancy = [0] * slots
        #: Pending invocations per tile: the summed length of its queues.
        self.pending = [0] * num_tiles

        # Engine dispatch flags.
        self.busy = [False] * num_tiles
        self.refill_pending = [False] * num_tiles

        # Processing unit occupancy and accounting (the result's per-tile
        # busy cycles and instructions).
        self.pu_busy_until = [0.0] * num_tiles
        self.pu_busy_cycles = [0.0] * num_tiles
        self.pu_instructions = [0] * num_tiles

        # TSU round-robin cursors.
        self.tsu_cursor = [0] * num_tiles

        # Per-tile local frontier buckets (the paper's T3 -> T4 hand-off).
        self.frontier: List[list] = [[] for _ in range(num_tiles)]

        # NoC interface port state, shared with the network models: the next
        # cycle each tile's injection / ejection port is free.
        self.noc_inject_free = [0.0] * num_tiles
        self.noc_eject_free = [0.0] * num_tiles

    # ------------------------------------------------------------------ queues
    def push_invocation(self, tile: int, task_id: int, item) -> None:
        """Append one pending invocation to ``(tile, task)``'s input queue.

        A push past the queue's capacity is accepted: the engines model
        unbounded ejection buffering, and the capacity only sets the
        occupancy policy's priority.
        """
        qi = tile * self.num_tasks + task_id
        queue = self.queues[qi]
        if queue is NEVER_PUSHED:
            queue = self.queues[qi] = deque()
        queue.append(item)
        self.queue_pushed[qi] += 1
        self.pending[tile] += 1
        occupancy = len(queue)
        if occupancy > self.queue_max_occupancy[qi]:
            self.queue_max_occupancy[qi] = occupancy

    def pop_invocation(self, tile: int, task_id: int):
        """Pop the oldest pending invocation of ``(tile, task)``; an empty
        queue raises :class:`IndexError` and counts nothing."""
        qi = tile * self.num_tasks + task_id
        queue = self.queues[qi]
        if not queue:
            raise IndexError("pop from an empty deque")
        item = queue.popleft()
        self.queue_popped[qi] += 1
        self.pending[tile] -= 1
        return item

    def tile_is_idle(self, tile: int) -> bool:
        return not self.pending[tile]

    # -------------------------------------------------------------- scheduling
    def select_task(self, tile: int) -> Optional[int]:
        """Pick the next task the tile's TSU would run (or ``None``).

        The occupancy policy ranks ready tasks by (level, capacity,
        occupancy): level 2 when the input queue is at least
        ``high_threshold`` full, else 0, so ties break toward the larger
        queue.  The paper's medium level (a starving downstream consumer)
        needs an output-queue occupancy the engines do not model, so it
        never fires.
        """
        pending = self.pending[tile]
        if not pending:
            return None
        num_tasks = self.num_tasks
        base = tile * num_tasks
        queues = self.queues
        task = 0
        while not queues[base + task]:
            task += 1
        if len(queues[base + task]) == pending:
            # The lone ready task holds every pending invocation.  Occupancy
            # has no rival to rank it against; the round-robin scan from the
            # cursor reaches it after ``(task - cursor) % K`` empty queues
            # and stops one past it.
            if self.round_robin:
                cursor = self.tsu_cursor[tile]
                self.tsu_cursor[tile] = cursor + (task - cursor) % num_tasks + 1
            return task
        ready = [other for other in range(task, num_tasks) if queues[base + other]]
        if self.round_robin:
            return self._select_round_robin(tile, ready)
        return self._select_by_occupancy(tile, ready)

    def _select_round_robin(self, tile: int, ready: List[int]) -> int:
        # ``num_tasks`` consecutive cursor values visit every task id, so the
        # scan always reaches a ready task.
        ready_set = set(ready)
        num_tasks = self.num_tasks
        cursor = self.tsu_cursor[tile]
        while True:
            candidate = cursor % num_tasks
            cursor += 1
            if candidate in ready_set:
                self.tsu_cursor[tile] = cursor
                return candidate

    def _select_by_occupancy(self, tile: int, ready: List[int]) -> int:
        base = tile * self.num_tasks
        queues = self.queues
        capacities = self.queue_capacity
        high = self.high_threshold

        def priority(task_id: int) -> tuple:
            occupancy = len(queues[base + task_id])
            capacity = capacities[task_id]
            level = 2 if occupancy / capacity >= high else 0
            return (level, capacity, occupancy)

        # ``ready`` is in ascending id order, so ``max`` keeps the lowest id
        # among equal priorities.
        return max(ready, key=priority)

"""Invariant tracing: engine-independent conservation checks on task flow.

Both simulation engines execute the same functional task programs; whatever
their timing models do, the *flow* of tasks must obey a few conservation laws:

* every task invocation that is spawned (an initial/epoch seed, a message
  emitted by a task, or a frontier refill) is consumed -- executed -- exactly
  once;
* the aggregate counters agree with the traced flow (``tasks_executed`` equals
  the number of consumed invocations, ``messages`` equals the number of
  message-origin spawns);
* monotone work counters never move backwards across an epoch;
* at the end of a run no invocation is left parked in a tile queue, and queue
  push/pop totals balance.

The :class:`InvariantTracer` is fed by :class:`~repro.core.engine_base.BaseEngine`
(one hook per spawn/consume site, shared by both engines; the cycle engine
hands over its consumption totals once per drain) and verified once in
``build_result``.  The always-on checks are O(tiles + tasks) integer
comparisons -- cheap enough to run on every simulation.  With ``detailed=True``
the tracer additionally records a per-epoch work trace and per-task-name
spawn/consume histograms for diagnosing a violation.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Sequence

from repro.errors import InvariantViolation

#: Counter fields whose per-epoch deltas must never be negative.
MONOTONE_COUNTERS = (
    "instructions",
    "tasks_executed",
    "messages",
    "flits",
    "flit_hops",
    "edges_processed",
)

#: Spawn origins tracked by the tracer.
SEED = "seed"
MESSAGE = "message"
REFILL = "refill"


class InvariantTracer:
    """Counts task spawns/consumptions and checks conservation at run end.

    Args:
        detailed: also record a per-epoch work trace (``epoch_records``) and
            per-task-name spawn/consume histograms (``spawned_by_task`` /
            ``consumed_by_task``).  The cheap totals are always maintained.
    """

    def __init__(self, detailed: bool = False) -> None:
        self.detailed = detailed
        self.spawned: Dict[str, int] = {SEED: 0, MESSAGE: 0, REFILL: 0}
        self.consumed = 0
        self.epochs_traced = 0
        self.epoch_records: List[dict] = []
        self.spawned_by_task: Dict[str, int] = {}
        self.consumed_by_task: Dict[str, int] = {}
        self.queue_high_water: Dict[int, int] = {}
        self._epoch_snapshot: Optional[Dict[str, float]] = None
        self._verified = False

    # ------------------------------------------------------------------ hooks
    @property
    def total_spawned(self) -> int:
        return sum(self.spawned.values())

    def record_seeds(self, resolved: Sequence) -> None:
        """One spawn per resolved ``(tile, task, params)`` seed."""
        self.spawned[SEED] += len(resolved)
        if self.detailed:
            for _tile, task, _params in resolved:
                self.spawned_by_task[task.name] = self.spawned_by_task.get(task.name, 0) + 1

    def record_refill(self, resolved: Sequence) -> None:
        """One spawn per ``(task, params)`` pulled from a local frontier."""
        self.spawned[REFILL] += len(resolved)
        if self.detailed:
            for task, _params in resolved:
                self.spawned_by_task[task.name] = self.spawned_by_task.get(task.name, 0) + 1

    def record_execution(self, task, outgoing: Sequence) -> None:
        """One task consumed; every entry of its ``ctx.outgoing`` spawned."""
        self.consumed += 1
        self.spawned[MESSAGE] += len(outgoing)
        if self.detailed:
            self.consumed_by_task[task.name] = self.consumed_by_task.get(task.name, 0) + 1
            for out_task, _params, _dst in outgoing:
                self.spawned_by_task[out_task.name] = (
                    self.spawned_by_task.get(out_task.name, 0) + 1
                )

    def record_executions(self, consumed: int, spawned: int) -> None:
        """Totals of :meth:`record_execution`: ``consumed`` tasks spawning
        ``spawned`` messages in all, for an engine that counts them itself
        (the cycle engine, once per drain, when the tracer is not detailed)."""
        self.consumed += consumed
        self.spawned[MESSAGE] += spawned

    def record_batch_execution(
        self, task, count: int, out_task=None, out_count: int = 0
    ) -> None:
        """Batched :meth:`record_execution`: ``count`` same-task consumptions
        spawning ``out_count`` messages, all of task ``out_task``.

        The batched engine path executes whole same-task segments; every
        kernel task emits exactly one downstream task type, so one
        (task, out_task) pair per segment preserves the detailed histograms.
        """
        self.consumed += count
        self.spawned[MESSAGE] += out_count
        if self.detailed:
            self.consumed_by_task[task.name] = (
                self.consumed_by_task.get(task.name, 0) + count
            )
            if out_task is not None and out_count:
                self.spawned_by_task[out_task.name] = (
                    self.spawned_by_task.get(out_task.name, 0) + out_count
                )

    def epoch_finished(self, epoch_index: int, counters) -> None:
        """Check monotonicity against the previous epoch; trace when detailed."""
        snapshot = {name: getattr(counters, name) for name in MONOTONE_COUNTERS}
        previous = self._epoch_snapshot or {name: 0 for name in MONOTONE_COUNTERS}
        for name, value in snapshot.items():
            if value < previous[name]:
                raise InvariantViolation(
                    f"counter {name!r} moved backwards across epoch {epoch_index}: "
                    f"{previous[name]} -> {value}"
                )
        if self.detailed:
            self.epoch_records.append(
                {"epoch": epoch_index}
                | {name: snapshot[name] - previous[name] for name in MONOTONE_COUNTERS}
            )
        self._epoch_snapshot = snapshot
        self.epochs_traced = epoch_index + 1

    # ----------------------------------------------------------------- verify
    def record_queue_stats(self, state) -> None:
        """Per-tile input-queue occupancy high-water marks (max over tasks),
        read from the :class:`~repro.core.state.CoreState` queue columns.

        Only a pushed queue can have a nonzero mark, so only the queues that
        exist are read: a run that queued nothing visits no slot.
        """
        num_tasks = state.num_tasks
        marks = state.queue_max_occupancy
        high_water = dict.fromkeys(range(state.num_tiles), 0)
        for slot in compress(range(len(marks)), state.queue_pushed):
            tile = slot // num_tasks
            if marks[slot] > high_water[tile]:
                high_water[tile] = marks[slot]
        self.queue_high_water = high_water

    def verify(self, counters, state) -> None:
        """Run the always-on conservation checks; raises :class:`InvariantViolation`.

        Idempotent per run: engines call this once from ``build_result``; the
        queue-balance checks are flat sums over the ``state`` queue columns,
        and the parked-work check reads the queues that were ever pushed.
        """
        total = self.total_spawned
        if self.consumed != total:
            raise InvariantViolation(
                f"task conservation broken: {total} invocations spawned "
                f"({dict(self.spawned)}) but {self.consumed} consumed"
            )
        if counters.tasks_executed != self.consumed:
            raise InvariantViolation(
                f"counters.tasks_executed={counters.tasks_executed} disagrees with "
                f"the traced task flow ({self.consumed} consumed)"
            )
        if counters.messages != self.spawned[MESSAGE]:
            raise InvariantViolation(
                f"counters.messages={counters.messages} disagrees with the traced "
                f"message spawns ({self.spawned[MESSAGE]})"
            )
        if counters.local_messages > counters.messages:
            raise InvariantViolation(
                f"local_messages={counters.local_messages} exceeds "
                f"messages={counters.messages}"
            )
        pending = sum(map(len, compress(state.queues, state.queue_pushed)))
        pushed = sum(state.queue_pushed)
        popped = sum(state.queue_popped)
        if pending:
            raise InvariantViolation(
                f"{pending} invocations still parked in tile queues at run end"
            )
        if pushed != popped:
            raise InvariantViolation(
                f"queue push/pop imbalance at run end: {pushed} pushed, {popped} popped"
            )
        self._verified = True

    def summary(self) -> dict:
        """JSON-able snapshot of the traced flow (for reports and debugging)."""
        return {
            "spawned": dict(self.spawned),
            "consumed": self.consumed,
            "epochs_traced": self.epochs_traced,
            "queue_high_water_max": max(self.queue_high_water.values(), default=0),
            "verified": self._verified,
            "detailed": self.detailed,
        }

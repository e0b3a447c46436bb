"""Analytical engine: functional execution plus a bottleneck timing model.

The engine executes every task invocation functionally (so outputs are exact)
and estimates the epoch's duration as the maximum of three lower bounds:

* **compute bound** -- the busiest tile's accumulated task cycles (work
  imbalance shows up here, which is how vertex-block placement loses to the
  paper's uniform placement);
* **network bound** -- the hottest link / endpoint / bisection traffic, at one
  flit per link per cycle (this is where mesh loses to torus and torus+ruche);
* **critical path** -- the longest task-invocation chain times the average
  per-hop task latency (this keeps latency-bound runs, e.g. a chain graph on a
  huge grid, from looking free).

Barriered executions sum per-epoch maxima plus a barrier/idle-detection cost,
which reproduces the paper's observation that synchronization makes every
epoch as slow as its slowest tile.

Every run takes one epoch loop over a FIFO worklist of
:class:`~repro.core.batch.Segment` columns.  Every task emits exactly one
downstream task type, so a FIFO of single invocations always drains in runs
of same-task invocations; popping a head run, executing it and appending its
outputs reproduces that FIFO exactly.  A segment executes as one batch
through the kernel's batch handlers, or -- when :meth:`_prepare_batch`
declines -- one invocation at a time through the scalar task handlers.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import List, Optional

import numpy as np

from repro.core.batch import Segment, segments_from_items, sequential_sum
from repro.core.engine_base import BaseEngine, Seed
from repro.core.results import SimulationResult
from repro.errors import SimulationError
from repro.noc.analytical import LinkLoadModel


class AnalyticalEngine(BaseEngine):
    """Fast engine for large grids and scaling sweeps."""

    def run(self) -> SimulationResult:
        total_cycles = 0.0
        epoch_index = 0
        seeds: Optional[List[Seed]] = list(self.kernel.initial_tasks(self.machine.graph))
        average_hops = self.topology.average_hop_distance(sample=64)

        self._batch = self._prepare_batch()
        if self._batch is not None:
            labels = {"mode": "batched"}
        else:
            labels = {"mode": "scalar", "reason": self.batch_decline}

        while seeds:
            with self.telemetry.span("engine.analytic.epoch", **labels):
                epoch_cycles = self._run_epoch(seeds, epoch_index, average_hops)
            total_cycles += epoch_cycles
            self.tracer.epoch_finished(epoch_index, self.counters)
            epoch_index += 1
            if not self.machine.barrier_effective:
                break
            if epoch_index >= self.config.max_epochs:
                raise SimulationError(
                    f"exceeded max_epochs={self.config.max_epochs}; "
                    "the kernel is not converging"
                )
            total_cycles += self.config.barrier_latency_cycles + self.topology.diameter()
            seeds = self.next_epoch_seeds(epoch_index)

        return self.build_result(max(total_cycles, 1.0), epochs=epoch_index)

    # ------------------------------------------------------------------ epoch
    def _run_epoch(self, seeds: List[Seed], epoch_index: int, average_hops: float) -> float:
        """Drain one epoch's segment worklist, executing every segment as a
        batch or, when the batch gate declined, one invocation at a time."""
        execute = self._execute_items if self._batch is None else self._execute_batch
        num_tiles = self.config.num_tiles
        epoch_busy = np.zeros(num_tiles, dtype=np.float64)
        epoch_link = LinkLoadModel(self.topology, detailed=self.link_model.detailed)
        tasks_this_epoch = 0
        max_generation = 0

        resolved = self.resolve_seeds(seeds)
        if epoch_index > 0:
            epoch_busy += self.charge_epoch_seeding(resolved)

        worklist = deque(
            segments_from_items(
                [(tile, task, params, 0, False) for tile, task, params in resolved]
            )
        )
        span = self.telemetry.span
        while worklist or self._refill_segments(worklist):
            segment = worklist.popleft()
            with span("engine.analytic.segment", task=segment.task.name):
                children, child_gen = execute(segment, epoch_link, epoch_busy)
            tasks_this_epoch += segment.n
            if child_gen > max_generation:
                max_generation = child_gen
            worklist.extend(children)

        self.link_model.merge(epoch_link)
        compute_bound = float(epoch_busy.max()) if len(epoch_busy) else 0.0
        return self._epoch_cycles(compute_bound, epoch_link, epoch_busy, tasks_this_epoch,
                                  max_generation, average_hops)

    def _refill_segments(self, worklist: deque) -> bool:
        """Barrierless mode: pull parked frontier work once the worklist drains.

        :meth:`~repro.apps.common.Kernel.refill_tile` draws only from a
        tile's ``state.frontier`` bucket, so only the tiles whose bucket
        holds work are visited, in tile order.
        """
        if self.machine.barrier_effective:
            return False
        items = [
            (tile_id, task, params, 0, False)
            for tile_id in compress(range(self.config.num_tiles), self.state.frontier)
            for task, params in self.resolve_refill(tile_id)
        ]
        worklist.extend(segments_from_items(items))
        return bool(items)

    # ------------------------------------------------------------- batch gate
    def _prepare_batch(self) -> Optional[dict]:
        """The batch handler table, or None to run per invocation.

        The one gate of the batched path: the reason it declines is kept in
        :attr:`batch_decline` (None when batched).  A batched run rebinds the
        per-tile counters to numpy arrays, so ``np.add.at`` scatters into
        them; floats stay order-exact because it applies duplicate indices in
        element order.
        """
        machine = self.machine
        self.batch_decline = None
        if not getattr(machine, "batch_execution", True):
            self.batch_decline = "batch execution is disabled on this machine"
            return None
        if self.config.allow_remote_access:
            # Remote-access penalties are per-access scalar state the batch
            # handlers do not model (the built-in kernels never trip them,
            # but the scalar handlers are the ones that own that semantics).
            self.batch_decline = "allow_remote_access uses scalar-only per-access semantics"
            return None
        handlers = self.kernel.batch_handlers(machine)
        if not handlers or any(task.name not in handlers for task in machine.program.tasks):
            self.batch_decline = (
                f"kernel {self.kernel.name!r} lacks batch handlers for every task"
            )
            return None
        state = self.state
        state.pu_instructions = np.asarray(state.pu_instructions, dtype=np.int64)
        state.pu_busy_cycles = np.asarray(state.pu_busy_cycles, dtype=np.float64)
        return handlers

    # -------------------------------------------------------------- executors
    def _execute_batch(self, segment: Segment, epoch_link, epoch_busy):
        """Execute one same-task run as a batch through its kernel handler."""
        result = self._batch[segment.task.name](segment)
        state = self.state
        counters = self.counters
        config = self.config
        n = segment.n
        tiles = segment.tiles
        reads = result.reads
        writes = result.writes
        accesses = reads + writes
        instructions = config.task_overhead_instructions + accesses + result.extra
        tables = self.memory_tables
        tables.ensure(int(accesses.max()) if n else 0)
        cost = instructions.astype(np.float64) + tables.stall[accesses]
        if config.remote_invocation == "interrupting" and segment.remote.any():
            remote = segment.remote
            penalty = config.interrupt_penalty_cycles
            cost = np.where(remote, cost + penalty, cost)
            counters.remote_interrupts += int(remote.sum())

        # execute_invocation's counter adds over the whole segment.
        counters.instructions += int(instructions.sum())
        counters.tasks_executed += n
        counters.sram_reads += int(reads.sum())
        counters.sram_writes += int(writes.sum())
        dram = tables.dram(accesses)
        if dram is not None:
            counters.dram_accesses = sequential_sum(counters.dram_accesses, dram)
        hits = tables.hits(accesses)
        if hits is not None:
            counters.cache_hits = sequential_sum(counters.cache_hits, hits)
        if result.edges is not None:
            counters.edges_processed += int(result.edges.sum())
        np.add.at(state.pu_busy_cycles, tiles, cost)
        np.add.at(state.pu_instructions, tiles, instructions)
        np.add.at(epoch_busy, tiles, cost)

        out_task = None
        out_count = 0
        if result.emits is not None:
            out_task, dests, out_params, counts_per_item = result.emits
            out_count = len(dests)
        self.tracer.record_batch_execution(segment.task, n, out_task, out_count)
        if not out_count:
            return [], 0
        flits = out_task.flits_per_invocation
        counters.messages += out_count
        counters.flits += flits * out_count
        sources = np.repeat(tiles, counts_per_item)
        remote_out = dests != sources
        counters.local_messages += int(out_count - remote_out.sum())
        if remote_out.any():
            self.charge_messages(epoch_link, sources[remote_out], dests[remote_out], flits)
        child_gens = np.repeat(segment.gens + 1, counts_per_item)
        return [Segment(out_task, dests, out_params, child_gens, remote_out)], int(child_gens.max())

    def _execute_items(self, segment: Segment, epoch_link, epoch_busy):
        """Execute one segment an invocation at a time, through the scalar
        task handlers, for a run the batch gate declined.

        The segment's non-local messages are logged in send order and
        charged with one :meth:`~repro.core.engine_base.BaseEngine.charge_messages`
        call, as the cycle engine charges its drains.
        """
        state = self.state
        counters = self.counters
        task = segment.task
        pu_busy_cycles = state.pu_busy_cycles
        pu_instructions = state.pu_instructions
        execute_invocation = self.execute_invocation
        release_context = self.release_context
        children = []
        sent_src: List[int] = []
        sent_dst: List[int] = []
        sent_flits: List[int] = []
        max_child_gen = 0
        for tile_id, params, generation, remote in zip(
            segment.tiles.tolist(),
            zip(*(column.tolist() for column in segment.params)),
            segment.gens.tolist(),
            segment.remote.tolist(),
        ):
            ctx, cost = execute_invocation(tile_id, task, params, remote)
            pu_busy_cycles[tile_id] += cost
            pu_instructions[tile_id] += ctx.instructions
            epoch_busy[tile_id] += cost
            child_gen = generation + 1
            for out_task, out_params, destination in ctx.outgoing:
                flits = out_task.flits_per_invocation
                counters.messages += 1
                counters.flits += flits
                if destination == tile_id:
                    counters.local_messages += 1
                else:
                    sent_src.append(tile_id)
                    sent_dst.append(destination)
                    sent_flits.append(flits)
                if child_gen > max_child_gen:
                    max_child_gen = child_gen
                children.append(
                    (destination, out_task, out_params, child_gen, destination != tile_id)
                )
            release_context(ctx)
        if sent_src:
            self.charge_messages(
                epoch_link,
                np.array(sent_src, dtype=np.int64),
                np.array(sent_dst, dtype=np.int64),
                np.array(sent_flits, dtype=np.int64),
            )
        return segments_from_items(children), max_child_gen

    def _epoch_cycles(
        self,
        compute_bound: float,
        epoch_link: LinkLoadModel,
        epoch_busy: np.ndarray,
        tasks_this_epoch: int,
        max_generation: int,
        average_hops: float,
    ) -> float:
        network_bound = epoch_link.network_bound_cycles()
        average_task_cost = (
            epoch_busy.sum() / tasks_this_epoch if tasks_this_epoch else 0.0
        )
        critical_path = max_generation * (average_task_cost + average_hops)
        return max(compute_bound, network_bound, critical_path, 1.0)

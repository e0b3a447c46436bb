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
outputs reproduces that FIFO exactly.  Every segment executes as one batch
through the kernel's batch handlers: a kernel without a handler for each of
its tasks is refused before any task runs (it runs on the cycle engine,
which executes the scalar task handlers).  The per-invocation loop the
batches replay is kept as a test oracle, not as a second path.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

import numpy as np

from repro.core.batch import Seed, Segment, seed_segment, sequential_sum
from repro.core.engine_base import BaseEngine
from repro.core.results import SimulationResult
from repro.errors import ConfigurationError, SimulationError
from repro.noc.analytical import LinkLoadModel


class AnalyticalEngine(BaseEngine):
    """Fast engine for large grids and scaling sweeps."""

    def run(self) -> SimulationResult:
        self._batch = self._prepare_batch()
        total_cycles = 0.0
        epoch_index = 0
        seeds = self.initial_seeds()
        average_hops = self.topology.average_hop_distance(sample=64)

        while seeds:
            with self.telemetry.span("engine.analytic.epoch"):
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
    def _run_epoch(self, seeds: Seed, epoch_index: int, average_hops: float) -> float:
        """Drain one epoch's segment worklist, executing every segment as a
        batch."""
        num_tiles = self.config.num_tiles
        epoch_busy = np.zeros(num_tiles, dtype=np.float64)
        epoch_link = LinkLoadModel(self.topology, detailed=self.link_model.detailed)
        tasks_this_epoch = 0
        max_generation = 0

        task, tiles, columns = self.resolve_seeds(seeds)
        if epoch_index > 0:
            epoch_busy += self.charge_epoch_seeding(tiles)

        worklist = deque([seed_segment(task, tiles, columns)])
        span = self.telemetry.span
        while worklist or self._refill_segments(worklist):
            segment = worklist.popleft()
            with span("engine.analytic.segment", task=segment.task.name):
                children, child_gen = self._execute_batch(segment, epoch_link, epoch_busy)
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
        holds work are visited, in tile order.  Their batches join into one
        segment per run of same-task batches: for the built-in kernels, one
        T4 segment.
        """
        if self.machine.barrier_effective:
            return False
        resolve_refill = self.resolve_refill
        runs = []  # (task, tile ids, column batches) per run of same-task batches
        for tile_id in compress(range(self.config.num_tiles), self.state.frontier):
            refill = resolve_refill(tile_id)
            if refill is None:
                continue
            task, columns = refill
            if not runs or runs[-1][0] is not task:
                runs.append((task, [], []))
            runs[-1][1].append(tile_id)
            runs[-1][2].append(columns)
        for task, tile_ids, batches in runs:
            tiles = np.repeat(tile_ids, [len(columns[0]) for columns in batches])
            worklist.append(seed_segment(task, tiles, tuple(map(np.concatenate, zip(*batches)))))
        return bool(runs)

    # --------------------------------------------------------- batch handlers
    def _prepare_batch(self) -> dict:
        """The kernel's batch handler table, one handler per program task.

        A kernel that lacks a handler for any task raises
        :class:`~repro.errors.ConfigurationError` naming the kernel and every
        such task; the engine has no per-invocation path to fall back to.
        The per-tile counters are rebound to numpy arrays, so ``np.add.at``
        scatters into them; floats stay order-exact because it applies
        duplicate indices in element order.
        """
        handlers = self.kernel.batch_handlers(self.machine)
        missing = [task.name for task in self.program.tasks if task.name not in handlers]
        if missing:
            raise ConfigurationError(
                f"kernel {self.kernel.name!r} has no batch handler for task(s) "
                f"{', '.join(map(repr, missing))}: the analytic engine runs every "
                "task through its kernel's batch handlers; run scalar-only "
                "kernels with engine='cycle'"
            )
        state = self.state
        state.pu_instructions = np.asarray(state.pu_instructions, dtype=np.int64)
        state.pu_busy_cycles = np.asarray(state.pu_busy_cycles, dtype=np.float64)
        return handlers

    # --------------------------------------------------------------- executor
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

        # The per-task counter adds, over the whole segment.
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
        self.tracer.record_segment(segment.task, n, out_task, out_count)
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

"""Sharded analytical execution: one run partitioned across shard workers.

The tile grid is split into contiguous extents (:class:`~repro.core.shard.ShardPlan`);
each shard worker holds a full, identically-built
:class:`~repro.core.machine.DalorexMachine` and executes only the items of
every segment whose destination tile falls inside its extent.  A hub
coordinator replays the serial engine's control flow -- the FIFO worklist,
epoch barriers, refills and the epoch-cycle bound -- while the shards run the
real :meth:`AnalyticalEngine._execute_segment` over their sub-segments.

**Determinism argument** (why reports are byte-identical at any shard count):

* Every item of a segment executes on the tile that owns its routed datum, so
  all items touching one tile -- and hence one array element -- land on one
  shard, in their original relative order (per-shard sub-columns are formed
  by order-preserving masks).  ``np.add.at`` and the relaxation helpers apply
  duplicates in element order, so per-element mutation order is unchanged.
* Integer accounting is order-free; shard sums equal the serial totals.
* Order-sensitive float folds are either per-tile (``epoch_busy``, charged on
  the owning shard in original order) or global (flit millimeters).  The hub
  replays the millimeter fold itself: shards report per-item emission counts,
  the hub assigns every child message its canonical global position
  ``(parent position, emission index)`` and folds the messages' terms with
  :meth:`~repro.noc.analytical.LinkLoadModel.fold_millimeters` in exactly the
  serial emission order.
* Cross-shard children are routed through the hub, sorted by canonical
  position, and injected in that order -- so the next segment's columns are
  identical to the serial engine's.

Runs outside the shardable envelope (cycle engine, ``dram_cache`` memory,
kernels without complete batch handlers) fall back to plain serial
execution, which is trivially byte-identical.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import Segment, segments_from_items
from repro.core.engine_analytic import AnalyticalEngine, batch_decline_reason
from repro.core.shard import ShardPlan, apply_link_state, export_link_state
from repro.errors import SimulationError
from repro.noc.analytical import LinkLoadModel
from repro.telemetry import get_telemetry

#: Elements per chunk when scanning a space for shard-owned indices (bounds
#: the temporary owner array on huge edge spaces).
OWNED_INDEX_CHUNK = 1 << 22


def shard_fallback_reason(machine) -> Optional[str]:
    """Why this machine cannot run sharded (None = fully shardable).

    Shards run the batched analytic path, so every
    :func:`~repro.core.engine_analytic.batch_decline_reason` applies, plus two
    sharded extras: only the analytic engine is partitioned, and
    ``dram_cache`` is excluded because its fractional miss charges fold in
    global execution order (a cross-shard float fold the exchange does not
    replay).
    """
    config = machine.config
    if config.engine != "analytic":
        return f"engine {config.engine!r} is not shardable (only 'analytic' is)"
    if config.memory == "dram_cache":
        return "dram_cache folds fractional miss charges in global execution order"
    return batch_decline_reason(machine)


def space_owned_indices(space, tile_lo: int, tile_hi: int) -> np.ndarray:
    """Indices of ``space`` elements owned by tiles in ``[tile_lo, tile_hi)``.

    Chunked so the temporary owner array never exceeds
    :data:`OWNED_INDEX_CHUNK` elements; hub and shards compute this with
    identical inputs, so both sides agree on the element order.
    """
    length = space.length
    pieces: List[np.ndarray] = []
    for start in range(0, length, OWNED_INDEX_CHUNK):
        stop = min(length, start + OWNED_INDEX_CHUNK)
        owners = space.owners_of(np.arange(start, stop, dtype=np.int64))
        hit = np.flatnonzero((owners >= tile_lo) & (owners < tile_hi))
        if len(hit):
            pieces.append(hit + start)
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)


# ------------------------------------------------------------------- worker
class ShardWorker:
    """One shard: the real engine internals over an owned tile extent.

    The worker reuses ``AnalyticalEngine._execute_segment`` verbatim; its
    writes into the shard's counters, core state, ``epoch_busy`` and epoch
    link model are exactly the deltas the hub later merges.
    """

    def __init__(self, machine, plan: ShardPlan, shard_index: int) -> None:
        reason = shard_fallback_reason(machine)
        if reason is not None:
            raise SimulationError(f"machine is not shardable: {reason}")
        self.machine = machine
        self.plan = plan
        self.shard = shard_index
        self.lo, self.hi = plan.extent(shard_index)
        engine = AnalyticalEngine(machine)
        engine._batch = engine._prepare_batch()
        if engine._batch is None:
            raise SimulationError("batch preparation failed on a shardable machine")
        engine._rebind_state_arrays()
        self.engine = engine
        self.topology = machine.topology
        self._owned_idx: Dict[str, np.ndarray] = {}
        self._snapshot: Optional[Dict[str, float]] = None
        self.epoch_busy: Optional[np.ndarray] = None
        self.epoch_link: Optional[LinkLoadModel] = None

    # ------------------------------------------------------------- dispatch
    def handle(self, msg: Dict[str, Any]) -> Any:
        op = msg["op"]
        if op == "exec":
            return self.exec_segment(msg)
        if op == "epoch_start":
            return self.epoch_start(msg)
        if op == "epoch_end":
            return self.epoch_end()
        if op == "refill":
            return self.refill()
        if op == "gather":
            return self.gather()
        if op == "update":
            return self.update(msg)
        if op == "finalize":
            return self.finalize(msg)
        raise SimulationError(f"unknown shard op {op!r}")

    # ------------------------------------------------------------------ ops
    def epoch_start(self, msg: Dict[str, Any]) -> None:
        num_tiles = self.machine.config.num_tiles
        self.epoch_busy = np.zeros(num_tiles, dtype=np.float64)
        self.epoch_link = LinkLoadModel(
            self.topology, detailed=self.engine.link_model.detailed
        )
        self._snapshot = self.engine.counters.to_dict()
        charge_tiles = msg.get("charge_tiles")
        if charge_tiles is not None and len(charge_tiles):
            # charge_epoch_seeding for the owned seeds: repeated addition of
            # the same constant per tile, so np.add.at (element order) is
            # bit-equal to the serial per-seed loop.
            tiles = np.asarray(charge_tiles, dtype=np.int64)
            cost = self.machine.config.epoch_seed_instructions
            np.add.at(self.epoch_busy, tiles, float(cost))
            np.add.at(self.engine.state.pu_instructions, tiles, cost)
            self.engine.counters.instructions += int(cost) * len(tiles)
        return None

    def exec_segment(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        task = self.machine.program.task(msg["task"])
        tiles = np.asarray(msg["tiles"], dtype=np.int64)
        params = tuple(np.asarray(column) for column in msg["params"])
        remote = np.asarray(msg["remote"], dtype=bool)
        gens = np.full(len(tiles), int(msg["gen"]), dtype=np.int64)
        segment = Segment(task, tiles, params, gens, remote)
        children, _executed, _gen, counts = self.engine._execute_segment(
            segment, self.epoch_link, self.epoch_busy
        )
        if len(children) > 1:
            raise SimulationError(
                "sharded execution requires one downstream task per segment "
                "(a scalar-fallback handler emitted mixed task types)"
            )
        reply: Dict[str, Any] = {"counts": counts}
        if children:
            child = children[0]
            reply["child_task"] = child.task.name
            reply["child_tiles"] = child.tiles
            reply["child_params"] = child.params
            reply["child_remote"] = child.remote
        return reply

    def refill(self) -> List[Dict[str, Any]]:
        return [
            {"task": segment.task.name, "tiles": segment.tiles, "params": segment.params}
            for segment in segments_from_items(self.engine.refill_items(self.lo, self.hi))
        ]

    def epoch_end(self) -> Dict[str, Any]:
        counters = self.engine.counters.to_dict()
        deltas = {
            name: counters[name] - self._snapshot[name] for name in counters
        }
        # The shard's local millimeter fold ran in sub-segment order; the hub
        # refolds the global order itself, so never ship the local value.
        deltas["flit_millimeters"] = 0.0
        return {
            "epoch_busy": self.epoch_busy[self.lo : self.hi].copy(),
            "link": export_link_state(self.epoch_link),
            "counters": deltas,
        }

    def owned_indices(self, space_name: str) -> np.ndarray:
        cached = self._owned_idx.get(space_name)
        if cached is None:
            space = self.machine.placement.space(space_name)
            cached = space_owned_indices(space, self.lo, self.hi)
            self._owned_idx[space_name] = cached
        return cached

    def gather(self) -> Dict[str, Any]:
        arrays = {}
        for name, spec in self.machine.program.arrays.items():
            idx = self.owned_indices(spec.space)
            arrays[name] = self.machine.arrays[name][idx]
        return {"arrays": arrays}

    def update(self, msg: Dict[str, Any]) -> None:
        for name, values in msg["arrays"].items():
            spec = self.machine.program.arrays[name]
            idx = self.owned_indices(spec.space)
            self.machine.arrays[name][idx] = np.asarray(values)
        return None

    def finalize(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        # Per-tile state is written only at item-owner tiles, so the owned
        # slice carries everything this shard accounted.
        state = self.engine.state
        reply: Dict[str, Any] = {
            "float_state": {
                name: getattr(state, name)[self.lo : self.hi].copy()
                for name in AnalyticalEngine._BATCH_FLOAT_FIELDS
            },
            "int_state": {
                name: getattr(state, name)[self.lo : self.hi].copy()
                for name in AnalyticalEngine._BATCH_INT_FIELDS
            },
        }
        if msg.get("gather_arrays", True):
            reply.update(self.gather())
        return reply


# ----------------------------------------------------------------- channels
class InprocChannel:
    """Same-process channel: the worker object is invoked directly.

    Byte-identity is a property of the sharded algorithm, not the wire, so
    the conformance tests drive this cheapest transport; the process-pool
    transport carries the same messages.
    """

    def __init__(self, worker: ShardWorker) -> None:
        self._worker = worker
        self._reply: Any = None

    def post(self, msg: Dict[str, Any]) -> None:
        self._reply = self._worker.handle(msg)

    def wait(self) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def request(self, msg: Dict[str, Any]) -> Any:
        self.post(msg)
        return self.wait()

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


# -------------------------------------------------------------- coordinator
class _PendingSegment:
    """Hub-side record of one worklist segment, split into per-shard bundles.

    ``bundles`` holds ``(shard, tiles, params, remote, positions)`` with the
    columns in canonical (global position) order restricted to that shard.
    """

    __slots__ = ("task", "gen", "n", "bundles")

    def __init__(self, task: str, gen: int, n: int, bundles: List[tuple]) -> None:
        self.task = task
        self.gen = gen
        self.n = n
        self.bundles = bundles


class ShardCoordinator:
    """Hub: replays the serial engine's control flow over shard channels.

    The hub machine never executes a task; its engine instance supplies the
    tracer, counters, link model and ``build_result`` so the final report is
    assembled exactly like the serial engine's.
    """

    def __init__(self, machine, plan: ShardPlan, channels: Sequence) -> None:
        self.machine = machine
        self.plan = plan
        self.channels = list(channels)
        if len(self.channels) != plan.num_shards:
            raise SimulationError(
                f"{plan.describe()} needs {plan.num_shards} channels, "
                f"got {len(self.channels)}"
            )
        engine = AnalyticalEngine(machine)
        engine._rebind_state_arrays()
        self.engine = engine
        self.topology = machine.topology
        self.telemetry = get_telemetry()
        self._owned_idx: List[Dict[str, np.ndarray]] = [
            {} for _ in range(plan.num_shards)
        ]
        self._arrays_current = True
        self._epoch_link: Optional[LinkLoadModel] = None

    # -------------------------------------------------------------- exchange
    def _observe_exchange(self, payloads: Sequence, wait_seconds: float) -> None:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        total = 0
        for payload in payloads:
            total += _payload_bytes(payload)
        telemetry.count("shard.exchange.messages", len(payloads))
        telemetry.count("shard.exchange.bytes", total)
        telemetry.observe("shard.exchange.barrier_wait_seconds", wait_seconds)

    def _broadcast(self, messages: Dict[int, Dict[str, Any]]) -> Dict[int, Any]:
        """Post one message per shard, then collect every reply."""
        for shard, msg in messages.items():
            self.channels[shard].post(msg)
        started = time.monotonic()
        replies = {shard: self.channels[shard].wait() for shard in messages}
        self._observe_exchange(
            list(messages.values()) + list(replies.values()),
            time.monotonic() - started,
        )
        return replies

    # ------------------------------------------------------------------- run
    def run(self):
        machine = self.machine
        engine = self.engine
        config = machine.config
        total_cycles = 0.0
        epoch_index = 0
        seeds = list(machine.kernel.initial_tasks(machine.graph))
        average_hops = self.topology.average_hop_distance(sample=64)

        while seeds:
            epoch_cycles = self._run_epoch(seeds, epoch_index, average_hops)
            total_cycles += epoch_cycles
            engine.tracer.epoch_finished(epoch_index, engine.counters)
            epoch_index += 1
            if not machine.barrier_effective:
                break
            if epoch_index >= config.max_epochs:
                raise SimulationError(
                    f"exceeded max_epochs={config.max_epochs}; "
                    "the kernel is not converging"
                )
            total_cycles += config.barrier_latency_cycles + self.topology.diameter()
            seeds = self._next_epoch_seeds(epoch_index)

        self._finalize()
        return engine.build_result(max(total_cycles, 1.0), epochs=epoch_index)

    # ----------------------------------------------------------------- epoch
    def _run_epoch(self, seeds, epoch_index: int, average_hops: float) -> float:
        engine = self.engine
        resolved = engine.resolve_seeds(seeds)

        starts: Dict[int, Dict[str, Any]] = {}
        charge_tiles = None
        if epoch_index > 0 and resolved:
            charge_tiles = np.fromiter(
                (tile for tile, _task, _params in resolved),
                dtype=np.int64,
                count=len(resolved),
            )
        for shard in range(self.plan.num_shards):
            msg: Dict[str, Any] = {"op": "epoch_start", "epoch": epoch_index}
            if charge_tiles is not None:
                lo, hi = self.plan.extent(shard)
                msg["charge_tiles"] = charge_tiles[
                    (charge_tiles >= lo) & (charge_tiles < hi)
                ]
            starts[shard] = msg
        self._broadcast(starts)

        self._arrays_current = False
        epoch_link = self._epoch_link = LinkLoadModel(
            self.topology, detailed=engine.link_model.detailed
        )
        tasks_this_epoch = 0
        max_generation = 0

        worklist: deque = deque()
        items = [
            (tile, task, params, 0, False) for tile, task, params in resolved
        ]
        for segment in segments_from_items(items):
            worklist.append(
                self._make_record(
                    segment.task.name,
                    0,
                    segment.tiles,
                    segment.params,
                    segment.remote,
                )
            )

        while worklist or self._refill(worklist):
            record = worklist.popleft()
            tasks_this_epoch += record.n
            child = self._execute_record(record)
            if child is not None:
                if record.gen + 1 > max_generation:
                    max_generation = record.gen + 1
                worklist.append(child)

        busy_full = np.zeros(self.machine.config.num_tiles, dtype=np.float64)
        ends = self._broadcast(
            {shard: {"op": "epoch_end"} for shard in range(self.plan.num_shards)}
        )
        counters = engine.counters
        for shard, reply in ends.items():
            lo, hi = self.plan.extent(shard)
            busy_full[lo:hi] = reply["epoch_busy"]
            apply_link_state(epoch_link, reply["link"])
            for name, delta in reply["counters"].items():
                setattr(counters, name, getattr(counters, name) + delta)
        engine.link_model.merge(epoch_link)
        compute_bound = float(busy_full.max()) if len(busy_full) else 0.0
        return engine._epoch_cycles(
            compute_bound,
            epoch_link,
            busy_full,
            tasks_this_epoch,
            max_generation,
            average_hops,
        )

    # -------------------------------------------------------------- segments
    def _make_record(
        self,
        task_name: str,
        gen: int,
        tiles: np.ndarray,
        params: Tuple[np.ndarray, ...],
        remote: np.ndarray,
    ) -> _PendingSegment:
        """Split canonically-ordered segment columns into per-shard bundles."""
        bundles = []
        for shard, idx in self.plan.shards_of(tiles):
            bundles.append(
                (
                    shard,
                    tiles[idx],
                    tuple(column[idx] for column in params),
                    remote[idx],
                    idx,
                )
            )
        return _PendingSegment(task_name, gen, len(tiles), bundles)

    def _execute_record(self, record: _PendingSegment) -> Optional[_PendingSegment]:
        """One worklist pop: fan the segment out, reassemble its children."""
        messages = {
            shard: {
                "op": "exec",
                "task": record.task,
                "gen": record.gen,
                "tiles": tiles,
                "params": params,
                "remote": remote,
            }
            for shard, tiles, params, remote, _positions in record.bundles
        }
        replies = self._broadcast(messages)

        ordered = [
            (bundle, replies[bundle[0]]) for bundle in record.bundles
        ]
        parent_pos = np.concatenate([bundle[4] for bundle, _ in ordered])
        counts = np.concatenate(
            [
                np.zeros(len(bundle[1]), dtype=np.int64)
                if reply["counts"] is None
                else np.asarray(reply["counts"], dtype=np.int64)
                for bundle, reply in ordered
            ]
        )
        total = int(counts.sum())

        program = self.machine.program
        child_task_name = None
        for _bundle, reply in ordered:
            name = reply.get("child_task")
            if name is not None:
                if child_task_name is None:
                    child_task_name = name
                elif child_task_name != name:
                    raise SimulationError(
                        "shards disagreed on the downstream task "
                        f"({child_task_name!r} vs {name!r})"
                    )
        out_task = program.task(child_task_name) if child_task_name else None
        self.engine.tracer.record_batch_execution(
            program.task(record.task), record.n, out_task, total
        )
        if total == 0:
            return None

        # Canonical child positions: children sort by (parent position,
        # emission index), which is exactly the serial emission order.
        order = np.argsort(parent_pos, kind="stable")
        sorted_counts = counts[order]
        bases = np.empty(len(counts), dtype=np.int64)
        bases[order] = np.cumsum(sorted_counts) - sorted_counts
        concat_bases = np.cumsum(counts) - counts
        emit_idx = np.arange(total, dtype=np.int64) - np.repeat(concat_bases, counts)
        child_pos = np.repeat(bases, counts) + emit_idx

        with_children = [reply for _bundle, reply in ordered if "child_tiles" in reply]
        child_tiles = np.concatenate([reply["child_tiles"] for reply in with_children])
        num_columns = len(with_children[0]["child_params"])
        child_params = tuple(
            np.concatenate([reply["child_params"][i] for reply in with_children])
            for i in range(num_columns)
        )
        child_remote = np.concatenate(
            [reply["child_remote"] for reply in with_children]
        )
        child_src = np.repeat(
            np.concatenate([bundle[1] for bundle, _ in ordered]), counts
        )

        final = np.argsort(child_pos)
        child_tiles = child_tiles[final]
        child_remote = child_remote[final]
        # Replay the serial millimeter fold over the non-local children, in
        # canonical (serial emission) order.
        self._epoch_link.fold_millimeters(
            child_src[final][child_remote],
            child_tiles[child_remote],
            out_task.flits_per_invocation,
            self.machine.tile_pitch_mm,
        )
        return self._make_record(
            child_task_name,
            record.gen + 1,
            child_tiles,
            tuple(column[final] for column in child_params),
            child_remote,
        )

    # ---------------------------------------------------------------- refill
    def _refill(self, worklist: deque) -> bool:
        if self.machine.barrier_effective:
            return False
        replies = self._broadcast(
            {shard: {"op": "refill"} for shard in range(self.plan.num_shards)}
        )
        merged: List[Dict[str, Any]] = []
        for shard in range(self.plan.num_shards):
            for run in replies[shard]:
                if merged and merged[-1]["task"] == run["task"]:
                    last = merged[-1]
                    last["tiles"] = np.concatenate([last["tiles"], run["tiles"]])
                    last["params"] = tuple(
                        np.concatenate([a, b])
                        for a, b in zip(last["params"], run["params"])
                    )
                else:
                    merged.append(
                        {
                            "task": run["task"],
                            "tiles": np.asarray(run["tiles"], dtype=np.int64),
                            "params": tuple(run["params"]),
                        }
                    )
        if not merged:
            return False
        program = self.machine.program
        for run in merged:
            task = program.task(run["task"])
            n = len(run["tiles"])
            self.engine.tracer.record_refill([(task, ())] * n)
            worklist.append(
                self._make_record(
                    run["task"],
                    0,
                    run["tiles"],
                    run["params"],
                    np.zeros(n, dtype=bool),
                )
            )
        return True

    # ---------------------------------------------------------- epoch bounds
    def _owned(self, shard: int, space_name: str) -> np.ndarray:
        cached = self._owned_idx[shard].get(space_name)
        if cached is None:
            lo, hi = self.plan.extent(shard)
            space = self.machine.placement.space(space_name)
            cached = space_owned_indices(space, lo, hi)
            self._owned_idx[shard][space_name] = cached
        return cached

    def _apply_gathered(self, shard: int, arrays: Dict[str, np.ndarray]) -> None:
        program = self.machine.program
        for name, values in arrays.items():
            idx = self._owned(shard, program.arrays[name].space)
            self.machine.arrays[name][idx] = np.asarray(values)

    def _gather_arrays(self) -> None:
        if self._arrays_current:
            return
        replies = self._broadcast(
            {shard: {"op": "gather"} for shard in range(self.plan.num_shards)}
        )
        for shard, reply in replies.items():
            self._apply_gathered(shard, reply["arrays"])
        self._arrays_current = True

    def _next_epoch_seeds(self, epoch_index: int):
        self._gather_arrays()
        seeds = self.engine.next_epoch_seeds(epoch_index)
        program = self.machine.program
        updates = {}
        for shard in range(self.plan.num_shards):
            arrays = {
                name: self.machine.arrays[name][self._owned(shard, spec.space)]
                for name, spec in program.arrays.items()
            }
            updates[shard] = {"op": "update", "arrays": arrays}
        self._broadcast(updates)
        self._arrays_current = True
        return seeds

    # -------------------------------------------------------------- finalize
    def _finalize(self) -> None:
        gather_arrays = not self._arrays_current
        replies = self._broadcast(
            {
                shard: {"op": "finalize", "gather_arrays": gather_arrays}
                for shard in range(self.plan.num_shards)
            }
        )
        state = self.engine.state
        for shard, reply in replies.items():
            lo, hi = self.plan.extent(shard)
            for name, values in reply["float_state"].items():
                getattr(state, name)[lo:hi] = values
            for name, values in reply["int_state"].items():
                getattr(state, name)[lo:hi] = values
            if gather_arrays:
                self._apply_gathered(shard, reply["arrays"])
        self._arrays_current = True


def _payload_bytes(value: Any) -> int:
    """Approximate wire size of one exchange payload (array bytes only)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_payload_bytes(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_payload_bytes(item) for item in value)
    return 0


# ------------------------------------------------------------------- runner
def run_sharded(
    machine_factory: Callable[[], Any],
    shards: int,
    verify: bool = False,
    compute_energy: bool = True,
    channel_factory: Optional[Callable[[ShardPlan], Sequence]] = None,
):
    """Run one simulation partitioned across ``shards`` workers.

    ``machine_factory`` must build identical fresh machines on every call
    (the hub gets one; the default in-process transport builds one more per
    shard).  Outside the shardable envelope -- or at an effective shard count
    of 1 -- this falls back to plain ``machine.run()``, which is trivially
    byte-identical.  ``channel_factory(plan)`` supplies transport channels
    (process pipes); the default runs every shard in-process.
    """
    hub = machine_factory()
    effective = min(int(shards), hub.config.num_tiles)
    if effective <= 1 or shard_fallback_reason(hub) is not None:
        return hub.run(compute_energy=compute_energy, verify=verify)
    plan = ShardPlan(hub.config.num_tiles, effective)
    if channel_factory is None:
        channels = [
            InprocChannel(ShardWorker(machine_factory(), plan, shard))
            for shard in range(plan.num_shards)
        ]
    else:
        channels = list(channel_factory(plan))
    hub._ran = True
    try:
        result = ShardCoordinator(hub, plan, channels).run()
    finally:
        for channel in channels:
            try:
                channel.close()
            except Exception:
                pass
    if compute_energy:
        hub.energy_model.attach(result, hub.config)
        if hub.config.memory == "sram":
            result.chip_area_mm2 = hub.chip_area_mm2()
        else:
            result.chip_area_mm2 = hub.area_model.hmc_area_mm2(
                hub.config.num_tiles
            )
    if verify:
        result.verified = bool(hub.kernel.verify(hub))
    return result

"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

The tracer replaces public functions of the simulator with timing wrappers
for the duration of one traced batch and restores them afterwards.  Nothing
in the simulator changes: a wrapper calls the original with the same
arguments and returns its result.

Spans are folded into per-wrapper aggregates in memory (calls, inclusive
seconds, self seconds) instead of being kept one record per call: the hot
NoC functions run about a million times per batch.  A span's self time is
its duration minus the time its wrapped children covered.

A wrapped function that no longer exists is recorded as absent rather than
failing, so a change that deletes one (say ``Topology.route_profile``) can
still be measured; every metric that depends on it is then reported absent.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Optional, Tuple

#: Wrapped functions: (wrap id, module, owner class or None, attribute).
#: ``layer_metrics`` turns the per-wrap tallies into the layer metrics.
WRAPS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("graph.build", "repro.runtime.spec", None, "load_graph"),
    ("machine.build", "repro.core.machine", "DalorexMachine", "__init__"),
    ("engine.cycle", "repro.core.engine_cycle", "CycleEngine", "run"),
    ("engine.analytic", "repro.core.engine_analytic", "AnalyticalEngine", "run"),
    ("noc.record_message", "repro.noc.analytical", "LinkLoadModel", "record_message"),
    ("noc.record_batch", "repro.noc.analytical", "LinkLoadModel", "record_batch"),
    ("noc.route_profile", "repro.noc.topology", "Topology", "route_profile"),
    ("noc.route_link_codes", "repro.noc.topology", "Topology", "route_link_codes"),
    ("noc.route_walk", "repro.noc.topology", "Topology", "links_on_route"),
    ("noc.sim.send", "repro.noc.sim.simulator", "NocSimulator", "send"),
    ("energy.attach", "repro.energy.model", "EnergyModel", "attach"),
    ("verify", "repro.apps.common", "Kernel", "verify"),
    ("runtime.serialize", "repro.runtime.backends", None, "result_to_payload"),
    ("runtime.deserialize", "repro.runtime.runner", None, "result_from_payload"),
)


class Tracer:
    """Install timing wrappers on entry, restore the originals on exit."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._stats: Dict[str, list] = {}  # wrap id -> [calls, total s, self s]
        self._child_s: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    @property
    def calls(self) -> Dict[str, int]:
        return {wrap_id: stats[0] for wrap_id, stats in self._stats.items()}

    @property
    def total_s(self) -> Dict[str, float]:
        return {wrap_id: stats[1] for wrap_id, stats in self._stats.items()}

    @property
    def self_s(self) -> Dict[str, float]:
        return {wrap_id: stats[2] for wrap_id, stats in self._stats.items()}

    def __enter__(self) -> "Tracer":
        for wrap_id, module_name, owner_name, attribute in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(wrap_id)
                continue
            setattr(owner, attribute, self._wrap(wrap_id, original))
            self._restore.append((owner, attribute, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, wrap_id: str, original):
        # The wrapper runs about a million times per batch, so it keeps its
        # tallies in one list and the open spans' child time in a flat stack.
        stats = [0, 0.0, 0.0]
        self._stats[wrap_id] = stats
        stack = self._child_s
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        def traced(*args, **kwargs):
            push(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - pop()
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = original
        return traced


def layer_metrics(tracer: Tracer, wall_s: float, tasks: int, tiles: int) -> Tuple[dict, list]:
    """Per-layer metrics of one traced batch, plus the names reported absent.

    ``wall_s`` is the traced batch's wall time; ``tasks`` and ``tiles`` are
    exact counts taken from the batch's results and specs.
    """
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    engine_s = total.get("engine.cycle", 0.0) + total.get("engine.analytic", 0.0)
    lookups = calls.get("noc.route_profile", 0) + calls.get("noc.route_link_codes", 0)
    walks = calls.get("noc.route_walk", 0)
    # name -> (wrap ids it needs, value function, unit)
    table = {
        "graph.build_s": (("graph.build",), lambda: own["graph.build"], "s"),
        "machine.build_s": (("machine.build",), lambda: own["machine.build"], "s"),
        "machine.tiles": ((), lambda: tiles, "count"),
        "machine.build.wall_frac": (
            ("machine.build",), lambda: total["machine.build"] / wall_s, "ratio"),
        "engine.cycle.self_s": (("engine.cycle",), lambda: own["engine.cycle"], "s"),
        "engine.cycle.wall_frac": (
            ("engine.cycle",), lambda: total["engine.cycle"] / wall_s, "ratio"),
        "engine.analytic.self_s": (
            ("engine.analytic",), lambda: own["engine.analytic"], "s"),
        "engine.tasks": ((), lambda: tasks, "count"),
        "engine.host_us_per_task": (
            ("engine.cycle", "engine.analytic"), lambda: 1e6 * engine_s / tasks, "us"),
        "noc.link_accounting_s": (
            ("noc.record_message", "noc.record_batch"),
            lambda: own["noc.record_message"] + own["noc.record_batch"], "s"),
        "noc.record_message_calls": (
            ("noc.record_message",), lambda: calls["noc.record_message"], "count"),
        "noc.record_batch_calls": (
            ("noc.record_batch",), lambda: calls["noc.record_batch"], "count"),
        "noc.route_lookups": (
            ("noc.route_profile", "noc.route_link_codes"), lambda: lookups, "count"),
        "noc.route_lookup_s": (
            ("noc.route_profile", "noc.route_link_codes"),
            lambda: own["noc.route_profile"] + own["noc.route_link_codes"], "s"),
        "noc.route_walks": (("noc.route_walk",), lambda: walks, "count"),
        "noc.route_hit_ratio": (
            ("noc.route_profile", "noc.route_link_codes", "noc.route_walk"),
            lambda: 1.0 - walks / lookups if lookups else 1.0, "ratio"),
        "noc.route_walk_s": (("noc.route_walk",), lambda: total["noc.route_walk"], "s"),
        "noc.sim.send_s": (("noc.sim.send",), lambda: own["noc.sim.send"], "s"),
        "noc.sim.sends": (("noc.sim.send",), lambda: calls["noc.sim.send"], "count"),
        "energy.attach_s": (("energy.attach",), lambda: own["energy.attach"], "s"),
        "verify.s": (("verify",), lambda: own["verify"], "s"),
        "runtime.serialize_s": (
            ("runtime.serialize",), lambda: own["runtime.serialize"], "s"),
        "runtime.deserialize_s": (
            ("runtime.deserialize",), lambda: own["runtime.deserialize"], "s"),
    }
    metrics, absent = {}, []
    for name, (needs, value, unit) in table.items():
        if any(wrap_id in tracer.absent for wrap_id in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value(), "unit": unit}
    return metrics, absent

"""Contention sweep: simulated vs analytical-bound cycles across injection load.

The paper's headline claim is that data-local task execution keeps the torus
NoC from becoming the bottleneck -- but the seed evaluation backed it with a
zero-contention lower bound.  This experiment quantifies how much the bound
hides: it runs the same workload through the cycle engine with the
``analytical`` network model and with the flit-level ``simulated`` model at a
ladder of router queue depths, across a ladder of injection loads (dataset
scale multipliers: more edges per tile means more flits per computed cycle),
and reports each run's cycles against the analytical link-load lower bound
carried in the result (``network_bound_cycles``).

Two sections:

* **workload sweep** -- real kernels as :class:`~repro.runtime.RunSpec`
  batches through the shared runner, so the sweep caches, parallelizes and
  distributes like every other experiment;
* **synthetic saturation** -- deterministic uniform-random traffic pushed
  directly through the :class:`~repro.noc.sim.NocSimulator` at fixed
  injection rates.  With the injection trace held fixed, shrinking the queue
  depth only ever adds constraints, so the simulated-vs-bound gap is
  provably monotone here (the property suite pins this).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.baselines.ladder import dalorex_full_config
from repro.noc.analytical import LinkLoadModel
from repro.noc.sim import NocSimulator
from repro.noc.topology import make_topology
from repro.runtime import ExperimentRunner, RunSpec

#: Router input-queue depths swept by default (1 = maximal backpressure).
DEFAULT_QUEUE_DEPTHS = (1, 2, 4, 8)

#: Dataset scale multipliers standing in for injection load.
DEFAULT_LOADS = (0.5, 1.0)

#: Flits injected per tile per cycle in the synthetic saturation sweep.
DEFAULT_INJECTION_RATES = (0.1, 0.3, 0.6)


def run_contention(
    dataset: str = "rmat16",
    app: str = "sssp",
    width: int = 8,
    height: int = 8,
    noc: str = "torus",
    routing: str = "dimension_ordered",
    queue_depths: Sequence[int] = DEFAULT_QUEUE_DEPTHS,
    loads: Sequence[float] = DEFAULT_LOADS,
    scale: float = 1.0,
    verify: bool = False,
    runner: Optional[ExperimentRunner] = None,
) -> Dict:
    """Run the workload sweep; returns ``{"rows": [...], "results": {...}}``.

    Every point is a cycle-engine run of ``app`` on ``dataset`` at
    ``scale * load``; per load, one run uses the analytical network and one
    run per queue depth uses the simulated network.
    """
    runner = ExperimentRunner.ensure(runner)
    queue_depths = tuple(queue_depths)
    loads = tuple(loads)
    points = []
    specs = []
    for load in loads:
        effective_scale = scale * load
        base = dalorex_full_config(width, height, engine="cycle").with_overrides(
            name="Dalorex-analytical", noc=noc
        )
        points.append({"load": load, "network": "analytical", "queue_depth": None})
        specs.append(
            RunSpec(app, dataset, base, scale=effective_scale, verify=verify)
        )
        for queue_depth in queue_depths:
            config = dalorex_full_config(width, height, engine="cycle").with_overrides(
                name=f"Dalorex-simulated-q{queue_depth}",
                noc=noc,
                network="simulated",
                routing=routing,
                queue_depth=queue_depth,
            )
            points.append(
                {"load": load, "network": "simulated", "queue_depth": queue_depth}
            )
            specs.append(
                RunSpec(app, dataset, config, scale=effective_scale, verify=verify)
            )
    results = runner.run_batch(specs)

    rows = []
    for point, result in zip(points, results):
        bound = result.network_bound_cycles
        rows.append(
            {
                "load": point["load"],
                "network": point["network"],
                "queue_depth": point["queue_depth"] or "-",
                "cycles": result.cycles,
                "network_bound": bound,
                "gap": result.cycles / bound if bound > 0 else float("inf"),
            }
        )
    return {
        "app": app,
        "dataset": dataset,
        "noc": noc,
        "routing": routing,
        "rows": rows,
        "results": list(zip(points, results)),
    }


def synthetic_saturation(
    width: int = 8,
    height: int = 8,
    noc: str = "torus",
    routing: str = "dimension_ordered",
    queue_depths: Sequence[int] = DEFAULT_QUEUE_DEPTHS,
    injection_rates: Sequence[float] = DEFAULT_INJECTION_RATES,
    messages: int = 400,
    flits_per_message: int = 2,
    seed: int = 7,
) -> Dict:
    """Uniform-random traffic straight through the simulator, per queue depth.

    The same deterministic trace (seeded source/destination pairs, injection
    times spaced to hit the target flits-per-tile-per-cycle rate) is replayed
    at every queue depth; the drain time is compared to the analytical
    :class:`~repro.noc.analytical.LinkLoadModel` bound for that trace.  For a
    fixed trace the drain time is monotone nonincreasing in queue depth.
    """
    topology = make_topology(noc, width, height)
    rows = []
    for rate in injection_rates:
        rng = random.Random(seed)
        trace = []
        interval = flits_per_message / (rate * topology.num_tiles)
        for index in range(messages):
            src = rng.randrange(topology.num_tiles)
            dst = rng.randrange(topology.num_tiles)
            trace.append((src, dst, flits_per_message, index * interval))
        bound_model = LinkLoadModel(topology)
        bound_model.record_batch(
            np.array([src for src, _dst, _flits, _inject in trace], dtype=np.int64),
            np.array([dst for _src, dst, _flits, _inject in trace], dtype=np.int64),
            flits_per_message,
        )
        bound = bound_model.network_bound_cycles()
        for queue_depth in queue_depths:
            simulator = NocSimulator(topology, routing=routing, queue_depth=queue_depth)
            for src, dst, flits, inject in trace:
                simulator.send(src, dst, flits, inject)
            drain = simulator.last_delivery
            rows.append(
                {
                    "injection_rate": rate,
                    "queue_depth": queue_depth,
                    "drain_cycles": drain,
                    "network_bound": bound,
                    "gap": drain / bound if bound > 0 else float("inf"),
                    "mean_latency": simulator.mean_latency(),
                }
            )
    return {"noc": noc, "routing": routing, "rows": rows}


def report(sweep: Dict, synthetic: Optional[Dict] = None) -> str:
    """Render both sections; builds the synthetic sweep if not supplied."""
    if synthetic is None:
        synthetic = synthetic_saturation(noc=sweep["noc"], routing=sweep["routing"])
    sections = [
        "== Contention sweep (simulated vs analytical-bound cycles) ==",
        f"{sweep['app']} on {sweep['dataset']}, {sweep['noc']} NoC, "
        f"routing={sweep['routing']}",
        format_table(sweep["rows"]),
        "",
        "-- synthetic saturation (uniform random traffic, fixed trace) --",
        format_table(synthetic["rows"]),
    ]
    return "\n".join(sections)


def main() -> None:  # pragma: no cover - manual entry point
    print(report(run_contention()))


if __name__ == "__main__":  # pragma: no cover
    main()

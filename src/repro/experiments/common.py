"""Shared helpers for the figure-reproduction runners.

Every runner accepts a ``scale`` knob (1.0 = the default stand-in sizes used in
``EXPERIMENTS.md``; smaller values shrink the graphs further so the benchmark
suite stays fast).  Absolute sizes are far below the paper's datasets -- see
DESIGN.md for the substitution rationale -- but each figure's qualitative shape
is preserved.

The figure runners themselves no longer construct machines inline: they
describe their simulations as :class:`repro.runtime.RunSpec` batches and hand
them to an :class:`repro.runtime.ExperimentRunner` (parallel workers plus the
on-disk result cache).  The helpers here remain the single place that maps
(app, dataset, scale) onto kernels and stand-in graphs -- both the runners and
the runtime's spec executor call through them, so a ``RunSpec`` reproduces
exactly what :func:`run_configuration` would run inline.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.apps import make_kernel
from repro.apps.common import Kernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.core.results import SimulationResult
from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_spec, load_dataset, stand_in_vertex_count

#: Default shrink factors (relative to the paper's dataset sizes) used by the
#: experiment runners.  They keep cycle-accurate 16x16 runs to a few seconds.
EXPERIMENT_SCALE_DIVISORS: Dict[str, int] = {
    "amazon": 64,
    "wikipedia": 2048,
    "livejournal": 2048,
    "rmat16": 16,
    "rmat22": 1024,
    "rmat25": 2048,
    "rmat26": 4096,
}

#: Short dataset labels used in the paper's figures.
DATASET_LABELS = {
    "amazon": "AZ",
    "wikipedia": "WK",
    "livejournal": "LJ",
    "rmat16": "R16",
    "rmat22": "R22",
    "rmat25": "R25",
    "rmat26": "R26",
}

#: PageRank iterations used by the experiment runners (kept small for runtime).
PAGERANK_ITERATIONS = 5

#: Relative wall-clock cost of simulating one edge on each engine, measured
#: against the analytic engine.  The cycle engine walks every queue and router
#: every cycle, so it is more than an order of magnitude slower per edge.
ENGINE_COST_FACTORS: Dict[str, float] = {
    "analytic": 1.0,
    "cycle": 12.0,
}

#: Relative per-edge work of each kernel (single-sweep kernels are 1.0).
#: PageRank is handled separately: it sweeps the edge list once per
#: iteration, so its factor is the iteration count.
APP_COST_FACTORS: Dict[str, float] = {
    "bfs": 1.0,
    "spmv": 1.0,
    "wcc": 1.6,   # symmetrized edges + repeated label relaxations
    "sssp": 2.2,  # weighted relaxations revisit edges across epochs
}


#: Extra wall-clock cost of routing every cycle-engine message through the
#: flit-level NoC simulator instead of the bare-link analytical model.
#: Measured on the contention sweep (sssp on rmat16, 8x8 torus, graphs
#: prebuilt): a simulated run averaged over queue depths 1-8 takes 1.7x its
#: analytical run (median of 30 back-to-back ratios, quartiles 1.56-1.84).
NETWORK_COST_FACTORS: Dict[str, float] = {
    "analytical": 1.0,
    "simulated": 1.7,
}


def engine_cost_factor(engine: str) -> float:
    """Predicted-cost multiplier for a simulation engine (arithmetic only)."""
    return ENGINE_COST_FACTORS.get(engine.strip().lower(), 1.0)


def network_cost_factor(network: str, engine: str = "cycle") -> float:
    """Predicted-cost multiplier for the network timing model.

    Only the cycle engine routes messages through the network model, so the
    knob cannot slow an analytic-engine run whatever its value.
    """
    if engine.strip().lower() != "cycle":
        return 1.0
    return NETWORK_COST_FACTORS.get(network.strip().lower(), 1.0)


def app_cost_factor(app: str, pagerank_iterations: int = PAGERANK_ITERATIONS) -> float:
    """Predicted-cost multiplier for an application kernel (arithmetic only).

    PageRank scales linearly with its iteration count (one full edge sweep
    per iteration); every other kernel uses a fixed per-edge factor.
    """
    key = app.strip().lower()
    if key == "pagerank":
        return float(max(1, pagerank_iterations))
    return APP_COST_FACTORS.get(key, 1.0)


def experiment_scale_divisor(name: str, scale: float = 1.0) -> int:
    """Effective shrink divisor for a dataset at an experiment ``scale``."""
    spec = dataset_spec(name)
    divisor = EXPERIMENT_SCALE_DIVISORS.get(spec.name, spec.default_scale_divisor)
    return max(1, int(round(divisor / max(scale, 1e-6))))


def experiment_dataset_vertices(name: str, scale: float = 1.0) -> int:
    """Vertex count :func:`load_experiment_dataset` would produce, computed
    arithmetically -- lets callers size grids without building the graph."""
    return stand_in_vertex_count(name, experiment_scale_divisor(name, scale))


def load_experiment_dataset(name: str, scale: float = 1.0, seed: int = 7) -> CSRGraph:
    """Load a dataset stand-in at the experiment's default size times ``scale``."""
    return load_dataset(
        name, scale_divisor=experiment_scale_divisor(name, scale), seed=seed
    )


def build_kernel(app: str, graph: CSRGraph, pagerank_iterations: int = PAGERANK_ITERATIONS) -> Kernel:
    """Instantiate the kernel for an application, picking a sensible root."""
    key = app.strip().lower()
    if key in ("bfs", "sssp"):
        return make_kernel(key, root=graph.highest_degree_vertex())
    if key == "pagerank":
        return make_kernel(key, num_iterations=pagerank_iterations)
    return make_kernel(key)


def run_configuration(
    config: MachineConfig,
    app: str,
    graph: CSRGraph,
    dataset_name: Optional[str] = None,
    verify: bool = False,
    pagerank_iterations: int = PAGERANK_ITERATIONS,
) -> SimulationResult:
    """Build a fresh machine for (config, app, graph) and run it once.

    Compatibility helper for callers that already hold a graph; batch and
    cacheable execution should go through :mod:`repro.runtime` instead.
    """
    kernel = build_kernel(app, graph, pagerank_iterations=pagerank_iterations)
    machine = DalorexMachine(config, kernel, graph, dataset_name=dataset_name or graph.name)
    return machine.run(verify=verify)

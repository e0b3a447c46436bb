"""The 21 golden payload cases: small, fast, deterministic simulations.

Each case pins one (app, graph recipe, machine config) point; the golden
fixture under ``tests/golden/payloads/`` stores the serialized result payload
the case produced when it was frozen.  The tier-1 test re-runs every case and
compares the fresh result against the stored one bit-for-bit at the decoded
level, so any engine change that perturbs a counter, an output array, or the
cycle count is caught even when the payload *encoding* itself evolves (the
golden loader tolerates older payload formats).

Coverage: both engines, both network models, all five apps, 2D and 3D
topologies (mesh / torus / ruche / mesh3d / torus3d), both schedulers, both
invocation styles, barrier and barrierless, and all three memory systems.
The compute bound sets every epoch's cycles in g01-g12; g21, a chain on a
wide grid, is the case whose cycles the critical-path bound sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import MachineConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    chain_graph,
    grid_graph,
    power_law_graph,
    rmat_graph,
    uniform_random_graph,
)


@dataclass(frozen=True)
class GoldenCase:
    name: str
    app: str
    graph: str          # key into GRAPH_RECIPES
    overrides: Tuple[Tuple[str, object], ...]

    def config(self) -> MachineConfig:
        return MachineConfig(name=self.name, **dict(self.overrides)).validate()


# Small fixed graphs: regenerated identically by generator seed, never stored.
GRAPH_RECIPES: Dict[str, Tuple] = {
    "rmat8": ("rmat", dict(scale=8, edge_factor=6, seed=11, weighted=False)),
    "rmat8w": ("rmat", dict(scale=8, edge_factor=6, seed=11, weighted=True)),
    "rmat7": ("rmat", dict(scale=7, edge_factor=8, seed=5, weighted=False)),
    "rmat7w": ("rmat", dict(scale=7, edge_factor=8, seed=5, weighted=True)),
    "uniform": ("uniform", dict(num_vertices=192, num_edges=1500, seed=9)),
    "powlaw": ("powlaw", dict(num_vertices=160, average_degree=7, seed=3)),
    "grid12": ("grid", dict(width=12, height=12)),
    "chain100w": ("chain", dict(num_vertices=100, weighted=True, seed=2)),
}


def build_graph(key: str) -> CSRGraph:
    kind, kwargs = GRAPH_RECIPES[key]
    if kind == "rmat":
        return rmat_graph(**kwargs)
    if kind == "uniform":
        return uniform_random_graph(**kwargs)
    if kind == "powlaw":
        return power_law_graph(**kwargs)
    if kind == "grid":
        return grid_graph(**kwargs)
    if kind == "chain":
        return chain_graph(**kwargs)
    raise KeyError(kind)


def _c(**kw) -> Tuple[Tuple[str, object], ...]:
    base = dict(width=4, height=4)
    base.update(kw)
    return tuple(sorted(base.items()))


GOLDEN_CASES: Tuple[GoldenCase, ...] = (
    # Analytic engine, analytical network
    GoldenCase("g01-bfs-analytic-torus", "bfs", "rmat8", _c(engine="analytic", noc="torus")),
    GoldenCase("g02-sssp-analytic-mesh", "sssp", "rmat8w", _c(engine="analytic", noc="mesh")),
    GoldenCase("g03-wcc-analytic-torus", "wcc", "uniform", _c(engine="analytic", noc="torus")),
    GoldenCase("g04-pagerank-analytic-torus", "pagerank", "powlaw", _c(engine="analytic", noc="torus")),
    GoldenCase("g05-spmv-analytic-ruche", "spmv", "rmat8w", _c(engine="analytic", noc="torus_ruche")),
    GoldenCase("g06-bfs-analytic-mesh3d", "bfs", "rmat8", _c(engine="analytic", noc="mesh3d", width=4, height=2, depth=2)),
    GoldenCase("g07-sssp-analytic-dram", "sssp", "chain100w", _c(engine="analytic", memory="dram")),
    GoldenCase("g08-wcc-analytic-dramcache", "wcc", "grid12", _c(engine="analytic", memory="dram_cache")),
    GoldenCase("g09-bfs-analytic-barrier", "bfs", "rmat8", _c(engine="analytic", barrier=True)),
    GoldenCase("g10-sssp-analytic-rr-block", "sssp", "rmat8w", _c(engine="analytic", scheduling="round_robin", vertex_placement="block", edge_placement="row")),
    GoldenCase("g11-pagerank-analytic-interrupt", "pagerank", "powlaw", _c(engine="analytic", remote_invocation="interrupting")),
    GoldenCase("g12-spmv-analytic-8x2", "spmv", "uniform", _c(engine="analytic", width=8, height=2, noc="mesh")),
    # Cycle engine, analytical network
    GoldenCase("g13-bfs-cycle-torus", "bfs", "rmat7", _c(engine="cycle", noc="torus")),
    GoldenCase("g14-sssp-cycle-mesh", "sssp", "rmat7w", _c(engine="cycle", noc="mesh")),
    GoldenCase("g15-wcc-cycle-rr", "wcc", "grid12", _c(engine="cycle", scheduling="round_robin")),
    GoldenCase("g16-pagerank-cycle-torus", "pagerank", "powlaw", _c(engine="cycle", noc="torus")),
    GoldenCase("g17-spmv-cycle-torus3d", "spmv", "rmat7w", _c(engine="cycle", noc="torus3d", width=4, height=2, depth=2)),
    GoldenCase("g18-bfs-cycle-interrupt-dram", "bfs", "rmat7", _c(engine="cycle", remote_invocation="interrupting", memory="dram")),
    # Cycle engine, simulated (flit-level) network
    GoldenCase("g19-bfs-cycle-simnet", "bfs", "rmat7", _c(engine="cycle", network="simulated", noc="mesh")),
    GoldenCase("g20-sssp-cycle-simnet-torus", "sssp", "rmat7w", _c(engine="cycle", network="simulated", noc="torus", routing="xy_yx")),
    # Analytic engine, latency-bound: a chain on a wide grid
    GoldenCase("g21-bfs-analytic-chain-barrier", "bfs", "chain100w", _c(engine="analytic", width=8, height=8, barrier=True)),
)


def run_case(case: GoldenCase, batch_execution: bool = True, reference: bool = False):
    """Execute one golden case and return its SimulationResult.

    ``batch_execution=False`` runs an analytic case with the batch gate
    declined, one invocation at a time over the same segments;
    ``reference=True`` runs it on the per-invocation reference loop
    (``tests/core/reference_analytic.py``).
    """
    from repro.core.machine import DalorexMachine
    from repro.experiments.common import build_kernel, run_configuration

    graph = build_graph(case.graph)
    if batch_execution and not reference:
        return run_configuration(
            case.config(), case.app, graph, dataset_name=case.graph, verify=True
        )
    kernel = build_kernel(case.app, graph)
    machine = DalorexMachine(case.config(), kernel, graph, dataset_name=case.graph)
    if reference:
        from tests.core.reference_analytic import run_reference

        return run_reference(machine, verify=True)
    machine.batch_execution = False
    return machine.run(verify=True)

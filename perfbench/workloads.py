"""The benchmark's workloads: public figure runners at ``scale=0.25``.

Each workload is one call of a figure runner from ``repro.experiments`` with
``verify=True``, given a runner that executes serially (``jobs=1``) with no
result cache.  The runner rewrites every spec's ``RunSpec.seed`` to the
benchmark seed; nothing else about the figure changes, so seed 7 reproduces
the figure's own inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.experiments.contention import run_contention
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig7 import run_fig7
from repro.runtime import ExperimentRunner, RunSpec

SCALE = 0.25


#: Workload name -> the figure call it times.  BENCHMARK.json says why each
#: workload exists; the comments here say which layers it stresses.
WORKLOADS: Dict[str, Callable[[ExperimentRunner], object]] = {
    # Cycle engine at 16x16 over every ladder rung: mesh and torus, DRAM and
    # SRAM, barrier and barrierless, every scheduling and invocation mode.
    # Per-message LinkLoadModel.record_message accounting; no analytic batch
    # path and no large-grid machine build.
    "cycle-ladder": lambda runner: run_fig5(
        apps=("bfs", "sssp"), datasets=("amazon", "rmat22"),
        scale=SCALE, verify=True, runner=runner,
    ),
    # Analytic engine on rmat26 at widths 16-128.  16 and 32 are torus and
    # take the batched record_batch path; 64 and 128 are torus_ruche and fall
    # back to the scalar path.  Building 16,384-tile machines is a visible
    # share; the route working set overflows the route-profile cache at the
    # large widths.  No cycle engine runs.
    "analytic-scaling": lambda runner: run_fig7(
        apps=("bfs", "sssp", "pagerank"), scale=SCALE, verify=True,
        runner=runner,
    ),
    # The same cycle engine as cycle-ladder, but 8 of its 10 runs send every
    # message through the flit-level NocSimulator: a change that helps the
    # analytical network and costs the simulated one shows here.
    "noc-contention": lambda runner: run_contention(
        scale=SCALE, verify=True, runner=runner,
    ),
}


class SeededRunner(ExperimentRunner):
    """Serial, uncached runner that sets ``RunSpec.seed`` on every spec."""

    def __init__(self, seed: int) -> None:
        super().__init__(jobs=1)
        self.seed = seed

    def run_batch(self, specs):
        return super().run_batch(
            [dataclasses.replace(spec, seed=self.seed) for spec in specs]
        )


class _SpecCollector(ExperimentRunner):
    """Records the specs a figure runner submits without executing them."""

    def __init__(self) -> None:
        super().__init__(jobs=1)
        self.specs: List[RunSpec] = []

    def run_batch(self, specs):
        self.specs.extend(specs)
        return []


def workload_specs(name: str, seed: int) -> List[RunSpec]:
    """The specs one run of workload ``name`` executes at ``seed``."""
    collector = _SpecCollector()
    WORKLOADS[name](collector)
    return [dataclasses.replace(spec, seed=seed) for spec in collector.specs]

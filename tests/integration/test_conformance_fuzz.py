"""Hypothesis-driven schedule fuzzer over the differential conformance harness.

Random (app, dataset, seed, placement, scheduling, topology, tile-count,
barrier, network-model) configurations are generated *as RunSpecs* and pushed
through ``repro.verify.run_conformance``: both engines, the reference
executor, the equality/bounds oracles, the invariant tracer and -- for
``network=simulated`` draws -- the network contention oracle.  On a failure hypothesis
shrinks the spec to a minimal reproduction, which is serialized as a JSON
repro file; the failure message names the file and the exact
``dalorex verify --spec`` command that replays it.

Budget: ``DALOREX_FUZZ_EXAMPLES`` (default 50 -- the acceptance floor for
this suite) scales the number of generated configurations; the nightly CI job
raises it.  Determinism comes from the ``ci`` hypothesis profile
(``derandomize=True``) registered in ``tests/conftest.py``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.runtime.spec import RunSpec
from repro.verify import run_conformance, write_repro_spec

FUZZ_EXAMPLES = int(os.environ.get("DALOREX_FUZZ_EXAMPLES", "50"))

#: Where shrunk failing specs land (override with DALOREX_REPRO_DIR).
REPRO_DIR = Path(
    os.environ.get("DALOREX_REPRO_DIR")
    or Path(tempfile.gettempdir()) / "dalorex-conformance-repros"
)


@st.composite
def conformance_specs(draw) -> RunSpec:
    """One random workload: app x dataset x machine shape x schedule knobs.

    Scales are tiny (64-128 vertex stand-ins) so a single example simulates
    on both engines in tens of milliseconds and the 50+ example budget stays
    inside a few seconds.
    """
    app = draw(st.sampled_from(["bfs", "sssp", "pagerank", "wcc", "spmv"]))
    dataset = draw(st.sampled_from(["rmat16", "amazon"]))
    scale = draw(st.sampled_from([0.01, 0.02]))
    seed = draw(st.integers(min_value=0, max_value=1023))
    width = draw(st.sampled_from([1, 2, 4]))
    height = draw(st.sampled_from([1, 2, 4]))
    # Network dimension: simulated runs exercise the flit-level NoC model
    # and its contention oracle (cycles >= analytical bound, per-link totals
    # reconciled); 3D NoCs ride the same draw so stacked grids are fuzzed.
    noc = draw(st.sampled_from(["mesh", "torus", "torus_ruche", "mesh3d", "torus3d"]))
    depth = draw(st.sampled_from([1, 2])) if noc in ("mesh3d", "torus3d") else 1
    network = draw(st.sampled_from(["analytical", "simulated"]))
    config = MachineConfig(
        width=width,
        height=height,
        depth=depth,
        noc=noc,
        scheduling=draw(st.sampled_from(["round_robin", "occupancy"])),
        vertex_placement=draw(st.sampled_from(["block", "interleave"])),
        edge_placement=draw(st.sampled_from(["block", "interleave", "row"])),
        barrier=draw(st.booleans()),
        network=network,
        routing=draw(st.sampled_from(["dimension_ordered", "xy_yx", "adaptive"])),
        queue_depth=draw(st.sampled_from([1, 2, 4])),
    )
    return RunSpec(
        app=app, dataset=dataset, config=config, scale=scale, seed=seed,
        pagerank_iterations=3,
    )


class TestConformanceFuzz:
    @given(spec=conformance_specs())
    @settings(max_examples=FUZZ_EXAMPLES)
    def test_random_schedules_conform(self, spec):
        report = run_conformance(spec)
        if not report.ok:
            path = write_repro_spec(spec, REPRO_DIR)
            pytest.fail(
                f"conformance violation (shrunk spec saved to {path};\n"
                f"replay with: dalorex verify --spec {path}):\n"
                + "\n".join(f"  - {violation}" for violation in report.violations)
            )

    def test_fuzz_budget_meets_acceptance_floor(self):
        """The suite must cover at least 50 generated configurations."""
        assert FUZZ_EXAMPLES >= 50

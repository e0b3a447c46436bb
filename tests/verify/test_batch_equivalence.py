"""Property test: both analytic executors are bit-equal to the reference loop.

The analytic engine runs every epoch over a worklist of same-task segments.
A batched run (``machine.batch_execution = True``, the default) executes
each segment through the kernel's batch handlers; a run the batch gate
declines executes the same segments one invocation at a time.  Both claim
exact equivalence with the per-invocation deque loop kept as the tests'
oracle (``tests/core/reference_analytic.py``) -- not "close", but identical
IEEE floats in every counter, per-tile array, link-load accumulator and
program output.  This property drives all three over random small graphs,
kernels and machine configurations and compares everything bitwise, so any
future vectorization change that perturbs an accumulation order fails
loudly here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BFSKernel, PageRankKernel, SPMVKernel, SSSPKernel, WCCKernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.graph.generators import rmat_graph, uniform_random_graph
from tests.core.reference_analytic import run_reference

COUNTER_FIELDS = (
    "instructions",
    "tasks_executed",
    "messages",
    "local_messages",
    "flits",
    "flit_hops",
    "router_traversals",
    "flit_millimeters",
    "sram_reads",
    "sram_writes",
    "dram_accesses",
    "cache_hits",
    "edges_processed",
    "remote_interrupts",
    "epochs",
)


def _kernel(name, graph):
    if name == "bfs":
        return BFSKernel(root=graph.highest_degree_vertex())
    if name == "sssp":
        return SSSPKernel(root=graph.highest_degree_vertex())
    if name == "wcc":
        return WCCKernel()
    if name == "pagerank":
        return PageRankKernel(num_iterations=3)
    return SPMVKernel(seed=1)


@st.composite
def equivalence_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=40))
    if draw(st.booleans()):
        graph = rmat_graph(draw(st.integers(min_value=4, max_value=6)), edge_factor=4, seed=seed)
    else:
        vertices = draw(st.integers(min_value=8, max_value=40))
        graph = uniform_random_graph(vertices, vertices * 3, seed=seed)
    kernel_name = draw(st.sampled_from(["bfs", "sssp", "wcc", "pagerank", "spmv"]))
    noc = draw(st.sampled_from(["mesh", "torus", "torus_ruche", "mesh3d", "torus3d"]))
    overrides = {
        "width": draw(st.sampled_from([2, 3, 4, 6])),
        "height": draw(st.sampled_from([2, 4])),
        "engine": "analytic",
        "noc": noc,
        "depth": draw(st.sampled_from([1, 2, 3])) if noc.endswith("3d") else 1,
        "ruche_factor": draw(st.sampled_from([2, 3])),
        "vertex_placement": draw(st.sampled_from(["block", "interleave"])),
        "barrier": draw(st.booleans()),
        "scheduling": draw(st.sampled_from(["occupancy", "round_robin"])),
        "memory": draw(st.sampled_from(["sram", "dram", "dram_cache"])),
    }
    return graph, kernel_name, overrides


def _run(graph, kernel_name, overrides, path):
    """One run on ``path``: ``"batched"``, ``"per-item"`` or ``"reference"``."""
    config = MachineConfig(**overrides)
    machine = DalorexMachine(config, _kernel(kernel_name, graph), graph)
    if path == "reference":
        return machine, run_reference(machine, compute_energy=False)
    machine.batch_execution = path == "batched"
    return machine, machine.run(compute_energy=False)


def assert_same_run(run, expected):
    (machine_a, a), (machine_e, e) = run, expected
    assert a.cycles == e.cycles
    assert a.epochs == e.epochs
    for field in COUNTER_FIELDS:
        value_a = getattr(a.counters, field)
        value_e = getattr(e.counters, field)
        assert value_a == value_e, f"counters.{field}: {value_a!r} != {value_e!r}"
    assert np.array_equal(a.per_tile_busy_cycles, e.per_tile_busy_cycles)
    assert np.array_equal(a.per_tile_instructions, e.per_tile_instructions)
    assert np.array_equal(a.per_router_flits, e.per_router_flits)
    for name in a.outputs:
        assert np.array_equal(a.outputs[name], e.outputs[name]), name
    assert np.array_equal(machine_a.link_model.slot_flits, machine_e.link_model.slot_flits)
    assert (
        machine_a.link_model.total_flit_millimeters
        == machine_e.link_model.total_flit_millimeters
    )
    assert machine_a.tracer.summary() == machine_e.tracer.summary()


def assert_bit_equal(graph, kernel_name, overrides):
    """The batched and the per-item run each equal the reference run."""
    reference = _run(graph, kernel_name, overrides, "reference")
    assert_same_run(_run(graph, kernel_name, overrides, "batched"), reference)
    assert_same_run(_run(graph, kernel_name, overrides, "per-item"), reference)


class TestBatchScalarEquivalence:
    @given(equivalence_cases())
    @settings(max_examples=40, deadline=None)
    def test_batched_run_is_bit_equal_to_scalar_run(self, case):
        graph, kernel_name, overrides = case
        assert_bit_equal(graph, kernel_name, overrides)

    @pytest.mark.parametrize(
        "overrides",
        [dict(noc="torus_ruche", width=8, height=8),
         dict(noc="mesh3d", width=4, height=2, depth=2),
         dict(noc="torus3d", width=4, height=2, depth=3)],
        ids=["torus_ruche", "mesh3d", "torus3d"],
    )
    def test_ruche_and_3d_topologies_take_batched_path(self, overrides, small_rmat):
        config = MachineConfig(engine="analytic", **overrides)
        machine = DalorexMachine(config, SSSPKernel(root=0), small_rmat)
        from repro.core.engine_analytic import AnalyticalEngine

        assert AnalyticalEngine(machine)._prepare_batch() is not None
        assert machine.run(verify=True).verified is True
        assert_bit_equal(small_rmat, "sssp", dict(engine="analytic", **overrides))

    def test_batch_mode_engages_on_default_config(self, small_rmat):
        config = MachineConfig(width=8, height=8, engine="analytic")
        machine = DalorexMachine(config, BFSKernel(root=0), small_rmat)
        from repro.core.engine_analytic import AnalyticalEngine

        assert AnalyticalEngine(machine)._prepare_batch() is not None

    def test_opt_out_flag_forces_scalar_path(self, small_rmat):
        config = MachineConfig(width=8, height=8, engine="analytic")
        machine = DalorexMachine(config, BFSKernel(root=0), small_rmat)
        machine.batch_execution = False
        from repro.core.engine_analytic import AnalyticalEngine

        assert AnalyticalEngine(machine)._prepare_batch() is None

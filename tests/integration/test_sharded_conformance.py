"""Sharded execution conformance: byte-identical reports at any shard count.

The tentpole invariant: running one simulation across N shard workers
produces a result payload bit-identical to the serial engine's, for every
shard count, transport, and supported configuration -- and configurations
outside the shardable envelope fall back to the serial path (trivially
identical).  Everything here compares serialized payload bytes, the
strictest equality the runtime defines.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.core.shard_exec import run_sharded, shard_fallback_reason
from repro.experiments.common import build_kernel
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.runtime.serialize import result_to_payload
from repro.runtime.spec import RunSpec, execute_spec
from repro.telemetry import telemetry_session


def machine_factory(app, graph, config, **kernel_kwargs):
    def factory():
        kernel = build_kernel(app, graph, **kernel_kwargs)
        return DalorexMachine(config, kernel, graph, dataset_name="test")

    return factory


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(scale=8, edge_factor=6, seed=11, weighted=True)


@pytest.fixture(scope="module")
def tiny_graph():
    return uniform_random_graph(num_vertices=96, num_edges=700, seed=5)


# One case per interesting envelope dimension: barrier and barrierless,
# sram and dram memory, detailed link model, placements, interrupts, and the
# mixed link lengths of ruche express channels and 3D TSVs.
CASES = [
    ("bfs", dict(width=4, height=4, noc="torus")),
    ("sssp", dict(width=4, height=4, noc="mesh", memory="dram")),
    ("wcc", dict(width=4, height=4, vertex_placement="block", edge_placement="row")),
    ("pagerank", dict(width=4, height=4, barrier=True)),
    ("spmv", dict(width=8, height=2, remote_invocation="interrupting")),
    ("sssp", dict(width=4, height=4, scheduling="round_robin", barrier=True)),
    ("sssp", dict(width=6, height=4, noc="torus_ruche", ruche_factor=2)),
    ("bfs", dict(width=4, height=2, depth=2, noc="mesh3d")),
    ("pagerank", dict(width=2, height=3, depth=3, noc="torus3d", barrier=True)),
]


def serial_payload(factory, verify=True):
    return result_to_payload(factory().run(verify=verify))


def sharded_payload(factory, shards, verify=True, channel_factory=None):
    return result_to_payload(
        run_sharded(factory, shards, verify=verify, channel_factory=channel_factory)
    )


class TestInprocByteIdentity:
    @pytest.mark.parametrize("app,overrides", CASES)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sharded_report_is_byte_identical(
        self, app, overrides, shards, small_graph
    ):
        config = MachineConfig(**overrides).validate()
        factory = machine_factory(app, small_graph, config)
        assert shard_fallback_reason(factory()) is None
        assert sharded_payload(factory, shards) == serial_payload(factory)

    def test_shard_count_above_tile_count_clamps(self, tiny_graph):
        config = MachineConfig(width=2, height=2).validate()
        factory = machine_factory("bfs", tiny_graph, config)
        assert sharded_payload(factory, 64) == serial_payload(factory)

    def test_single_shard_uses_the_serial_path(self, tiny_graph):
        config = MachineConfig(width=4, height=4).validate()
        factory = machine_factory("bfs", tiny_graph, config)
        assert sharded_payload(factory, 1) == serial_payload(factory)


class TestFallbackEnvelope:
    @pytest.mark.parametrize(
        "overrides,expect",
        [
            (dict(engine="cycle"), "engine"),
            (dict(memory="dram_cache"), "dram_cache"),
            (dict(allow_remote_access=True), "remote_access"),
        ],
    )
    def test_fallback_reason_names_the_gate(self, overrides, expect, tiny_graph):
        config = MachineConfig(**overrides).validate()
        machine = machine_factory("bfs", tiny_graph, config)()
        reason = shard_fallback_reason(machine)
        assert reason is not None and expect in reason

    @pytest.mark.parametrize(
        "overrides",
        [dict(engine="cycle"), dict(memory="dram_cache"), dict(allow_remote_access=True)],
    )
    def test_fallback_cases_still_byte_identical(self, overrides, tiny_graph):
        config = MachineConfig(**overrides).validate()
        factory = machine_factory("bfs", tiny_graph, config)
        assert sharded_payload(factory, 4) == serial_payload(factory)


class TestGoldenCasesSharded:
    def test_all_golden_cases_byte_identical_at_multiple_shard_counts(self):
        from tests.golden.golden_cases import GOLDEN_CASES, build_graph

        for case in GOLDEN_CASES:
            graph = build_graph(case.graph)
            config = case.config()
            factory = machine_factory("".join(case.app), graph, config)
            base = serial_payload(factory)
            for shards in (2, 4):
                assert sharded_payload(factory, shards) == base, (
                    f"{case.name} diverged at {shards} shards"
                )

    def test_every_analytic_golden_case_but_dram_cache_really_shards(self):
        from tests.golden.golden_cases import GOLDEN_CASES, build_graph

        serial_only = set()
        for case in GOLDEN_CASES:
            factory = machine_factory("".join(case.app), build_graph(case.graph), case.config())
            if shard_fallback_reason(factory()) is not None:
                serial_only.add(case.name)
        analytic = {case.name for case in GOLDEN_CASES if "analytic" in case.name}
        assert analytic & serial_only == {"g08-wcc-analytic-dramcache"}
        assert "g05-spmv-analytic-ruche" in analytic
        assert "g06-bfs-analytic-mesh3d" in analytic


class TestSpecLevelSharding:
    def run_spec(self, shards, backend):
        spec = RunSpec(
            app="sssp",
            dataset="R16",
            config=MachineConfig(width=4, height=4),
            scale=16.0,
            seed=3,
            verify=True,
            shards=shards,
        )
        old = os.environ.get("DALOREX_SHARD_BACKEND")
        os.environ["DALOREX_SHARD_BACKEND"] = backend
        try:
            return result_to_payload(execute_spec(spec))
        finally:
            if old is None:
                os.environ.pop("DALOREX_SHARD_BACKEND", None)
            else:
                os.environ["DALOREX_SHARD_BACKEND"] = old

    def test_execute_spec_dispatches_and_matches_serial(self):
        base = self.run_spec(1, "inproc")
        assert self.run_spec(3, "inproc") == base

    def test_process_pool_transport_matches_serial(self):
        base = self.run_spec(1, "inproc")
        assert self.run_spec(2, "local") == base


class TestTelemetryDeterminism:
    def test_outputs_byte_identical_with_telemetry_on(self, small_graph):
        config = MachineConfig(width=4, height=4).validate()
        factory = machine_factory("bfs", small_graph, config)
        base = serial_payload(factory)
        with telemetry_session() as telemetry:
            sharded = sharded_payload(factory, 3)
            metrics = telemetry.snapshot()
        assert sharded == base
        names = set(metrics["counters"])
        assert "shard.exchange.messages" in names
        assert "shard.exchange.bytes" in names


class TestFloatExactness:
    """The folds most likely to drift are float folds; pin them explicitly."""

    def test_flit_millimeters_and_cycles_bit_equal(self, small_graph):
        config = MachineConfig(width=4, height=4, memory="dram").validate()
        factory = machine_factory("sssp", small_graph, config)
        serial = factory().run(verify=False)
        sharded = run_sharded(factory, 4, verify=False)
        for attr in ("cycles", "network_bound_cycles"):
            assert getattr(serial, attr) == getattr(sharded, attr)
        assert (
            serial.counters.flit_millimeters == sharded.counters.flit_millimeters
        )
        assert serial.counters.dram_accesses == sharded.counters.dram_accesses
        assert np.array_equal(
            serial.per_tile_busy_cycles, sharded.per_tile_busy_cycles
        )
        for name, array in serial.outputs.items():
            assert np.array_equal(array, sharded.outputs[name]), name

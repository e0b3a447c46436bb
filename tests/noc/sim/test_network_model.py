"""The NetworkModel seam: engine integration and the network oracle."""

import numpy as np
import pytest

from repro.apps import make_kernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.core.network import AnalyticalNetwork, make_network_model
from repro.graph.generators import rmat_graph
from repro.noc.sim import NocSimulator
from repro.noc.topology import make_topology
from repro.verify.oracles import check_network_contention


def run_machine(graph, **config_overrides):
    config = MachineConfig(width=4, height=4, engine="cycle", **config_overrides)
    machine = DalorexMachine(config, make_kernel("pagerank", num_iterations=3), graph)
    result = machine.run(compute_energy=False)
    return machine, result


class TestSeamSelection:
    def test_analytical_is_the_default(self):
        model = make_network_model(MachineConfig(), make_topology("torus", 4, 4))
        assert isinstance(model, AnalyticalNetwork)
        assert model.kind == "analytical"

    def test_simulated_honours_routing_and_queue_depth(self):
        config = MachineConfig(network="simulated", routing="adaptive", queue_depth=7)
        model = make_network_model(config, make_topology("torus", 4, 4))
        assert isinstance(model, NocSimulator)
        assert model.kind == "simulated"
        assert model.policy.kind == "adaptive"
        assert model.queue_depth == 7

    def test_analytical_network_matches_seed_arithmetic(self):
        topology = make_topology("torus", 4, 4)
        model = AnalyticalNetwork(topology)
        # Two 3-flit messages over one 2-hop route: store-and-forward
        # serialization (no pipelining), exactly the seed engine's numbers.
        hops = topology.hop_distance(0, 2)
        assert model.send(0, 2, 3, 0.0) == hops * 3
        assert model.send(0, 2, 3, 0.0) == hops * 3 + 3


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(7, edge_factor=6, seed=3)

    def test_machine_publishes_network_and_link_model(self, graph):
        machine, _ = run_machine(graph, network="simulated")
        assert isinstance(machine.network, NocSimulator)
        assert machine.link_model is not None
        assert machine.network.total_messages == machine.link_model.total_messages

    def test_simulated_run_keeps_counters_and_outputs(self, graph):
        """The network model changes *when* messages land, never what they
        carry: order-independent work and outputs match the analytical run."""
        _, analytical = run_machine(graph, network="analytical")
        _, simulated = run_machine(graph, network="simulated", queue_depth=1)
        assert (
            simulated.counters.instructions == analytical.counters.instructions
        )
        assert simulated.counters.flits == analytical.counters.flits
        assert simulated.counters.flit_hops == analytical.counters.flit_hops
        for name, array in analytical.outputs.items():
            np.testing.assert_allclose(simulated.outputs[name], array)

    def test_simulated_cycles_respect_the_analytical_bound(self, graph):
        machine, result = run_machine(graph, network="simulated")
        assert result.cycles >= machine.link_model.network_bound_cycles()
        assert result.network_bound_cycles == pytest.approx(
            machine.link_model.network_bound_cycles()
        )

    def test_network_oracle_passes_on_a_clean_run(self, graph):
        for routing in ("dimension_ordered", "xy_yx", "adaptive"):
            machine, result = run_machine(graph, network="simulated", routing=routing)
            violations = check_network_contention(
                result, machine.link_model, machine.network
            )
            assert violations == [], (routing, violations)

    def test_network_oracle_flags_a_tampered_run(self, graph):
        machine, result = run_machine(graph, network="simulated")
        # Claiming fewer cycles than the analytical bound must be caught.
        result.cycles = 0.5
        violations = check_network_contention(
            result, machine.link_model, machine.network
        )
        assert any("lower bound" in violation for violation in violations)

    def test_network_oracle_flags_a_per_slot_divergence(self, graph):
        machine, result = run_machine(graph, network="simulated")
        slot = int(np.flatnonzero(machine.link_model.slot_flits)[0])
        machine.link_model.slot_flits[slot] += 1
        violations = check_network_contention(
            result, machine.link_model, machine.network
        )
        link = machine.network.policy.layout.link(slot)
        assert any(
            "on 1 link(s)" in violation and f"{link}:" in violation
            for violation in violations
        ), violations

    def test_network_oracle_flags_missing_network_model(self, graph):
        machine, result = run_machine(graph, network="analytical")
        violations = check_network_contention(result, machine.link_model, machine.network)
        assert violations  # analytical model published: not a simulated run

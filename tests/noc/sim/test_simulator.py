"""NocSimulator: serialization, backpressure, ports and determinism."""

import random

import numpy as np
import pytest

from repro.noc.analytical import LinkLoadModel
from repro.noc.sim import NocSimulator
from repro.noc.topology import make_topology


def uniform_trace(topology, messages, flits=2, seed=0, interval=0.25):
    rng = random.Random(seed)
    return [
        (rng.randrange(topology.num_tiles), rng.randrange(topology.num_tiles),
         flits, index * interval)
        for index in range(messages)
    ]


def replay(simulator, trace):
    return [simulator.send(src, dst, flits, now) for src, dst, flits, now in trace]


class TestFreeFlowLatency:
    def test_single_flit_takes_one_cycle_per_hop(self):
        topology = make_topology("torus", 4, 4)
        sim = NocSimulator(topology)
        assert sim.send(0, 3, 1, 0.0) == topology.hop_distance(0, 3)

    def test_multi_flit_messages_pipeline(self):
        topology = make_topology("mesh", 4, 4)
        sim = NocSimulator(topology)
        hops = topology.hop_distance(0, 15)
        assert sim.send(0, 15, 5, 0.0) == hops + 5 - 1

    def test_local_messages_are_free(self):
        sim = NocSimulator(make_topology("mesh", 2, 2))
        assert sim.send(1, 1, 4, 7.5) == 7.5
        assert sim.total_messages == 0  # never entered the network


class TestLinkSerialization:
    def test_two_messages_share_a_link_serially(self):
        topology = make_topology("mesh", 4, 1)
        sim = NocSimulator(topology)
        first = sim.send(0, 3, 1, 0.0)
        second = sim.send(0, 3, 1, 0.0)
        assert first == 3
        # The second head flit waits one cycle behind the first on every link.
        assert second == 4

    def test_injection_port_serializes_one_flit_per_cycle(self):
        topology = make_topology("mesh", 2, 2)
        sim = NocSimulator(topology)
        # Two messages to *different* destinations share only the source NI.
        first = sim.send(0, 1, 1, 0.0)
        second = sim.send(0, 2, 1, 0.0)
        assert first == 1.0
        assert second == 2.0

    def test_ejection_port_serializes_one_flit_per_cycle(self):
        topology = make_topology("mesh", 3, 3)
        sim = NocSimulator(topology)
        center = topology.tile_at(1, 1)
        # Two neighbours hit the same destination over disjoint links.
        a = sim.send(topology.tile_at(0, 1), center, 1, 0.0)
        b = sim.send(topology.tile_at(2, 1), center, 1, 0.0)
        assert {a, b} == {1.0, 2.0}


class TestBackpressure:
    def test_shallow_queues_never_deliver_earlier(self):
        topology = make_topology("torus", 4, 4)
        trace = uniform_trace(topology, 300, seed=3, interval=0.1)
        drains = {}
        for queue_depth in (1, 2, 4, 8):
            sim = NocSimulator(topology, queue_depth=queue_depth)
            replay(sim, trace)
            drains[queue_depth] = sim.last_delivery
        assert drains[1] >= drains[2] >= drains[4] >= drains[8]
        # And the trace is congested enough that depth 1 actually bites.
        assert drains[1] > drains[8]

    def test_queue_depth_one_blocks_pipelining_through_a_chain(self):
        # A long chain with a 1-deep buffer: body flits must wait for the
        # head to advance before they can enter the next buffer slot.
        topology = make_topology("mesh", 6, 1)
        deep = NocSimulator(topology, queue_depth=8)
        shallow = NocSimulator(topology, queue_depth=1)
        flits = 4
        assert shallow.send(0, 5, flits, 0.0) >= deep.send(0, 5, flits, 0.0)

    def test_invalid_queue_depth_rejected(self):
        with pytest.raises(ValueError, match="queue_depth"):
            NocSimulator(make_topology("mesh", 2, 2), queue_depth=0)


class TestDeterminismAndAccounting:
    def test_identical_traces_schedule_identically(self):
        topology = make_topology("torus", 4, 4)
        trace = uniform_trace(topology, 200, seed=11)
        a = replay(NocSimulator(topology, queue_depth=2), trace)
        b = replay(NocSimulator(topology, queue_depth=2), trace)
        assert a == b

    def test_dor_link_flits_match_analytical_model(self):
        topology = make_topology("torus", 4, 4)
        sim = NocSimulator(topology, queue_depth=2)
        model = LinkLoadModel(topology)
        for src, dst, flits, now in uniform_trace(topology, 250, seed=5):
            sim.send(src, dst, flits, now)
            model.record_message(src, dst, flits)
        assert np.array_equal(sim.slot_flits, model.slot_flits)
        assert sim.total_flit_hops == model.total_flit_hops
        assert sim.last_delivery >= model.network_bound_cycles()

    def test_reset_clears_state_and_stats(self):
        topology = make_topology("mesh", 3, 3)
        sim = NocSimulator(topology)
        replay(sim, uniform_trace(topology, 50, seed=1))
        sim.reset()
        assert sim.total_messages == 0 and sim.last_delivery == 0.0
        assert sim.send(0, 1, 1, 0.0) == 1.0  # free-flow again

    def test_stats_shape(self):
        topology = make_topology("mesh", 3, 3)
        sim = NocSimulator(topology, routing="adaptive", queue_depth=3)
        replay(sim, uniform_trace(topology, 20, seed=2))
        stats = sim.stats()
        assert stats["routing"] == "adaptive"
        assert stats["queue_depth"] == 3
        assert stats["messages"] == sim.total_messages
        assert stats["last_delivery"] == sim.last_delivery


"""Hypothesis properties tying the NoC simulator to the analytical model.

The flit-level simulator and the zero-contention ``LinkLoadModel`` are two
accountings of the same traffic: under dimension-ordered routing they must
charge identical flit totals to identical links, and simulation may only ever
*add* latency on top of the analytical lower bounds -- per message (a message
can never beat ``hops + flits - 1``) and end to end (the drain time can never
beat the hottest-link serialization).  Shrinking queues only adds
constraints, so drain times are monotone in queue depth for a fixed trace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.analytical import LinkLoadModel
from repro.noc.sim import NocSimulator
from repro.noc.topology import make_topology


@st.composite
def traffic_cases(draw):
    """One random (topology, message trace) pair, small enough to stay fast."""
    kind = draw(st.sampled_from(["mesh", "torus", "torus_ruche", "mesh3d", "torus3d"]))
    width = draw(st.integers(min_value=1, max_value=5))
    height = draw(st.integers(min_value=1, max_value=5))
    depth = draw(st.integers(min_value=1, max_value=3)) if kind.endswith("3d") else 1
    topology = make_topology(kind, width, height, depth=depth)
    tiles = topology.num_tiles
    count = draw(st.integers(min_value=1, max_value=60))
    trace = []
    now = 0.0
    for _ in range(count):
        src = draw(st.integers(min_value=0, max_value=tiles - 1))
        dst = draw(st.integers(min_value=0, max_value=tiles - 1))
        flits = draw(st.integers(min_value=1, max_value=4))
        now += draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))
        trace.append((src, dst, flits, now))
    queue_depth = draw(st.integers(min_value=1, max_value=6))
    return topology, trace, queue_depth


class TestSimulatorVsAnalyticalModel:
    @given(case=traffic_cases())
    @settings(max_examples=60, deadline=None)
    def test_dor_reproduces_link_loads_and_respects_bounds(self, case):
        topology, trace, queue_depth = case
        simulator = NocSimulator(topology, queue_depth=queue_depth)
        model = LinkLoadModel(topology)
        for src, dst, flits, now in trace:
            arrival = simulator.send(src, dst, flits, now)
            if src != dst:
                # Local messages never enter the network -- the engines skip
                # the link model for them too, so mirror that accounting.
                model.record_message(src, dst, flits)
                # A message never beats its own free-flow pipeline latency.
                free_flow = topology.hop_distance(src, dst) + flits - 1
                assert arrival - now >= free_flow
        # Per-slot flit totals are *exactly* the analytical accounting.
        assert np.array_equal(simulator.slot_flits, model.slot_flits)
        assert simulator.total_flit_hops == model.total_flit_hops
        # The drain time never beats the analytical network lower bound.
        if model.total_messages:
            assert simulator.last_delivery >= model.network_bound_cycles()

    @given(case=traffic_cases())
    @settings(max_examples=40, deadline=None)
    def test_drain_time_is_monotone_in_queue_depth(self, case):
        topology, trace, _queue_depth = case
        drains = []
        for queue_depth in (1, 2, 8):
            simulator = NocSimulator(topology, queue_depth=queue_depth)
            for src, dst, flits, now in trace:
                simulator.send(src, dst, flits, now)
            drains.append(simulator.last_delivery)
        assert drains[0] >= drains[1] >= drains[2]

    @given(
        case=traffic_cases(),
        routing=st.sampled_from(["xy_yx", "adaptive"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_alternate_routings_conserve_traffic(self, case, routing):
        topology, trace, queue_depth = case
        simulator = NocSimulator(topology, routing=routing, queue_depth=queue_depth)
        model = LinkLoadModel(topology)
        for src, dst, flits, now in trace:
            simulator.send(src, dst, flits, now)
            model.record_message(src, dst, flits)
        # Minimal routing: flit-hops conserved even when links differ.
        assert simulator.total_flit_hops == model.total_flit_hops
        assert sum(simulator.slot_flits) == model.slot_flits.sum()


class TestContentionExperimentMonotonicity:
    def test_synthetic_saturation_gap_is_monotone_as_queues_shrink(self):
        """The acceptance property of the contention experiment: for the
        fixed synthetic trace, the simulated-vs-bound gap never shrinks when
        the queue depth does."""
        from repro.experiments.contention import synthetic_saturation

        sweep = synthetic_saturation(queue_depths=(8, 4, 2, 1))
        by_rate = {}
        for row in sweep["rows"]:
            by_rate.setdefault(row["injection_rate"], []).append(
                (row["queue_depth"], row["gap"])
            )
        for rate, rows in by_rate.items():
            ordered = [gap for _depth, gap in sorted(rows, reverse=True)]
            assert ordered == sorted(ordered), (
                f"gap not monotone as queues shrink at rate {rate}: {rows}"
            )

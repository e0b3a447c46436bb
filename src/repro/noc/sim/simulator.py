"""Deterministic flit-level NoC simulator with finite queues and backpressure.

:class:`NocSimulator` models a virtual-cut-through network at flit
granularity.  Every directed link carries one flit per cycle; every router
input port holds at most ``queue_depth`` flits, and a flit may only cross a
link when the downstream input buffer has a free slot (credit backpressure);
tiles inject and eject at most one flit per cycle through their network
interface.  Multi-flit messages pipeline: the head flit reserves nothing
beyond its own buffer slot, body flits follow one cycle apart, so a message's
free-flow latency is ``hops + flits - 1`` cycles and every queueing conflict
only ever adds to that.

Messages are resolved *in injection order*: :meth:`send` computes the full
flit schedule of one message against the persistent link/buffer/port state
and returns its delivery time.  Earlier messages therefore delay later ones
(their flits hold links, buffer slots and ports), while later messages never
retroactively delay earlier ones -- the same greedy arbitration the seed
cycle engine used for bare links, extended to queues and credits.  Two
consequences worth naming:

* determinism: the schedule is a pure function of the injection sequence, so
  simulated runs are replayable and cacheable like every other result;
* no deadlock: a message always runs to completion before the next is
  considered, so cyclic buffer wait-for graphs cannot form and adaptive
  routing needs no virtual channels.

Tightening ``queue_depth`` only ever adds constraints to the schedule, so
delivery times -- and the simulated-vs-analytical-bound gap the contention
experiment plots -- are monotone as queues shrink (for a fixed injection
trace).

Per-link flit totals are accounted exactly like the analytical
:class:`~repro.noc.analytical.LinkLoadModel`: under dimension-ordered
routing the two agree flit-for-flit on every link (the network conformance
oracle pins this); adaptive/oblivious policies move flits to different links
but conserve flits and never shorten a route below minimal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.noc.sim.routing import RoutingPolicy, make_routing
from repro.noc.topology import Topology
from repro.telemetry import get_telemetry

Link = Tuple[int, int]

#: Telemetry sampling stride: queue occupancy / latency are observed on every
#: Nth message so the instrumented hot path stays cheap on large traces.
_SAMPLE_STRIDE = 64


class NocSimulator:
    """Incremental flit-level simulation of one topology's network state.

    Args:
        topology: the network being simulated.
        routing: routing policy name (see :data:`repro.noc.sim.ROUTING_KINDS`)
            or an already-built :class:`RoutingPolicy`.
        queue_depth: flit capacity of every router input buffer (>= 1).
    """

    #: NetworkModel-seam discriminator (see :mod:`repro.core.network`).
    kind = "simulated"

    def __init__(
        self,
        topology: Topology,
        routing: str | RoutingPolicy = "dimension_ordered",
        queue_depth: int = 4,
        state=None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.topology = topology
        self.queue_depth = int(queue_depth)
        self.policy = (
            routing if isinstance(routing, RoutingPolicy) else make_routing(routing, topology)
        )
        # Persistent network state ------------------------------------------
        #: Next cycle each directed link can start transmitting a flit.
        self._link_free: Dict[Link, float] = {}
        #: Release times of the flits currently charged to each link's
        #: downstream input-buffer slots (at most ``queue_depth`` entries).
        self._credits: Dict[Link, Deque[float]] = {}
        #: Next cycle each tile's injection / ejection port is free -- flat
        #: arrays indexed by tile id.  When the simulator is built for a
        #: machine, these are the *same* lists as the columnar
        #: :class:`~repro.core.state.CoreState` ``noc_inject_free`` /
        #: ``noc_eject_free`` columns, so the engine and the network model
        #: read identical port occupancy instead of mirroring it.
        if state is not None:
            self._inject_free = state.noc_inject_free
            self._eject_free = state.noc_eject_free
        else:
            self._inject_free = [0.0] * topology.num_tiles
            self._eject_free = [0.0] * topology.num_tiles
        # Accounting --------------------------------------------------------
        self.link_flits: Dict[Link, int] = {}
        self.total_messages = 0
        self.total_flits = 0
        self.total_flit_hops = 0
        self.latency_sum = 0.0
        self.last_delivery = 0.0
        self.telemetry = get_telemetry()

    # ------------------------------------------------------------------- send
    def send(self, src: int, dst: int, flits: int, now: float) -> float:
        """Schedule one ``flits``-long message injected at ``now``; returns
        the cycle its tail flit is delivered at ``dst``.

        Local (same-tile) messages never enter the network and cost nothing,
        matching the analytical model and the engines' counter accounting.
        """
        if src == dst:
            return now
        if flits < 1:
            raise ValueError(f"message length must be >= 1 flit, got {flits}")
        message_index = self.total_messages
        self.total_messages += 1
        path = self.policy.route(
            src, dst, message_index, lambda link: self._link_free.get(link, 0.0)
        )
        links = list(zip(path[:-1], path[1:]))
        hops = len(links)
        arrival = now
        for _flit in range(flits):
            # The tile's injection port releases one flit per cycle.
            t = max(now, self._inject_free[src])
            departures: List[float] = []
            for link in links:
                dep = max(t, self._link_free.get(link, 0.0))
                credit = self._credits.get(link)
                if credit is not None and len(credit) >= self.queue_depth:
                    # All downstream buffer slots are charged: wait for the
                    # oldest resident flit to leave, then reuse its slot.
                    dep = max(dep, credit.popleft())
                departures.append(dep)
                self._link_free[link] = dep + 1.0
                t = dep + 1.0  # flit lands in the downstream buffer
            self._inject_free[src] = departures[0] + 1.0
            # The destination's ejection port drains one flit per cycle.
            eject = max(t, self._eject_free[dst])
            self._eject_free[dst] = eject + 1.0
            arrival = eject
            # Charge the buffer slots this flit occupied: the slot behind
            # link h frees when the flit departs on link h+1 (or ejects).
            for h, link in enumerate(links):
                release = departures[h + 1] if h + 1 < hops else eject
                self._credits.setdefault(link, deque()).append(release)
        # ------------------------------------------------------- accounting
        for link in links:
            self.link_flits[link] = self.link_flits.get(link, 0) + flits
        self.total_flits += flits
        self.total_flit_hops += flits * hops
        self.latency_sum += arrival - now
        if arrival > self.last_delivery:
            self.last_delivery = arrival
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("noc.sim.messages")
            telemetry.count("noc.sim.flits", flits)
            if message_index % _SAMPLE_STRIDE == 0:
                # Occupancy of every buffer along this route, plus latency:
                # sampled, because per-message histograms would dominate the
                # flit loop on saturation traces.
                for link in links:
                    credit = self._credits.get(link)
                    telemetry.observe(
                        "noc.sim.queue_occupancy", len(credit) if credit else 0
                    )
                telemetry.observe("noc.sim.latency_cycles", arrival - now)
        return arrival

    # ------------------------------------------------------------------ stats
    def max_link_load(self) -> int:
        """Heaviest per-link flit count actually routed (simulated traffic)."""
        return max(self.link_flits.values(), default=0)

    def mean_latency(self) -> float:
        """Average message latency (delivery minus injection), in cycles."""
        if self.total_messages == 0:
            return 0.0
        return self.latency_sum / self.total_messages

    def stats(self) -> Dict[str, float]:
        """Summary used by reports and the contention experiment."""
        return {
            "routing": self.policy.kind,
            "queue_depth": self.queue_depth,
            "messages": self.total_messages,
            "flits": self.total_flits,
            "flit_hops": self.total_flit_hops,
            "max_link_load": self.max_link_load(),
            "mean_latency": self.mean_latency(),
            "last_delivery": self.last_delivery,
        }

    def reset(self) -> None:
        """Clear all network state and accounting (topology/policy kept).

        Port arrays are zeroed in place: they may be shared with a machine's
        columnar state."""
        self._link_free.clear()
        self._credits.clear()
        for tile in range(len(self._inject_free)):
            self._inject_free[tile] = 0.0
            self._eject_free[tile] = 0.0
        self.link_flits.clear()
        self.total_messages = 0
        self.total_flits = 0
        self.total_flit_hops = 0
        self.latency_sum = 0.0
        self.last_delivery = 0.0

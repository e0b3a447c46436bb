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

Network state is flat: one busy-until time, one flit count and one ring of
``queue_depth`` credit release times per link slot of
:meth:`~repro.noc.topology.Topology.slot_layout`, the (tile, output port)
layout :class:`~repro.core.network.AnalyticalNetwork` uses too.  Routing
policies return slot lists walked in closed form; nothing is cached per
(src, dst) pair.

Per-link flit totals are accounted exactly like the analytical
:class:`~repro.noc.analytical.LinkLoadModel`, on the same slots: under
dimension-ordered routing the two agree flit-for-flit on every slot (the
network conformance oracle pins this); adaptive/oblivious policies move
flits to different links but conserve flits and never shorten a route below
minimal.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.noc.sim.routing import RoutingPolicy, make_routing
from repro.noc.topology import Topology

Link = Tuple[int, int]


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
        self._clear_links()

    def _clear_links(self) -> None:
        """Fresh per-slot link, buffer and accounting state."""
        num_slots = self.topology.num_tiles * self.policy.layout.ports
        #: Next cycle each link slot can start transmitting a flit.
        self._link_free = [0.0] * num_slots
        #: Release times of the last ``queue_depth`` flits charged to each
        #: slot's downstream buffer: slot ``s``'s ring is the ``queue_depth``
        #: entries from ``s * queue_depth``, ``-inf`` where none was charged.
        self._credits = [-math.inf] * (num_slots * self.queue_depth)
        #: Ring position of each slot's oldest charge (its next overwrite).
        self._credit_heads = [0] * num_slots
        #: Flits routed over each link slot.
        self.slot_flits = [0] * num_slots
        self.total_messages = 0
        self.total_flits = 0
        self.total_flit_hops = 0
        self.latency_sum = 0.0
        self.last_delivery = 0.0

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
        link_free = self._link_free
        route = self.policy.route(src, dst, message_index, link_free)
        hops = len(route)
        depth = self.queue_depth
        credits = self._credits
        heads = self._credit_heads
        inject_free = self._inject_free
        eject_free = self._eject_free
        for _flit in range(flits):
            # The tile's injection port releases one flit per cycle.
            port = inject_free[src]
            t = port if port > now else now
            behind = -1  # ring entry charged for the buffer the flit is in
            for slot in route:
                free = link_free[slot]
                dep = free if free > t else t
                # Wait for the oldest flit charged to the downstream buffer
                # to leave (-inf while the buffer has a free slot), then
                # take over its ring entry.
                head = heads[slot]
                entry = slot * depth + head
                oldest = credits[entry]
                if oldest > dep:
                    dep = oldest
                heads[slot] = head + 1 if head + 1 < depth else 0
                # Departing on this link frees the buffer behind it.  A
                # minimal route never repeats a link, so no ring is read
                # after this flit has charged it.
                if behind >= 0:
                    credits[behind] = dep
                behind = entry
                t = dep + 1.0  # flit lands in the downstream buffer
                link_free[slot] = t
            # The injection port frees with the first link: one cycle after
            # the flit left on it.
            inject_free[src] = link_free[route[0]]
            # The destination's ejection port drains one flit per cycle.
            port = eject_free[dst]
            eject = port if port > t else t
            eject_free[dst] = eject + 1.0
            credits[behind] = eject
        # ------------------------------------------------------- accounting
        slot_flits = self.slot_flits
        for slot in route:
            slot_flits[slot] += flits
        self.total_flits += flits
        self.total_flit_hops += flits * hops
        self.latency_sum += eject - now
        if eject > self.last_delivery:
            self.last_delivery = eject
        return eject

    @property
    def link_flits(self) -> Dict[Link, int]:
        """Flits routed over each used directed link, ``(src, dst) -> flits``
        (a view derived from :attr:`slot_flits`)."""
        return self.policy.layout.link_view(self.slot_flits)

    # ------------------------------------------------------------------ stats
    def max_link_load(self) -> int:
        """Heaviest per-link flit count actually routed (simulated traffic)."""
        return max(self.slot_flits, default=0)

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
        for tile in range(len(self._inject_free)):
            self._inject_free[tile] = 0.0
            self._eject_free[tile] = 0.0
        self._clear_links()

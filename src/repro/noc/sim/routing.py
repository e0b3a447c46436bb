"""Pluggable routing policies for the flit-level NoC simulator.

A policy maps one message to the ordered list of link *slots* it traverses,
in the topology's flat (tile, output port) numbering
(:meth:`~repro.noc.topology.Topology.slot_layout`; ``layout.link(slot)``
names the ``(tile, next_tile)`` pair).  Every policy walks the layout's
per-dimension leg table in closed form, with no route cache.  All policies
are *minimal* (each hop is the greedy first hop :meth:`Topology.route` takes
in its dimension, so torus shortest-direction wraps and ruche express
channels are honoured on every topology, 3D stacks included), and all are
deterministic: given the same topology, message sequence and link state they
produce the same routes, which is what keeps simulated runs replayable and
cacheable.

* :class:`DimensionOrderedRouting` -- X then Y (then Z): the paper's wormhole
  network, and the route set the analytical
  :class:`~repro.noc.analytical.LinkLoadModel` charges.  Per-link flit totals
  under this policy must match the analytical model *exactly* (the network
  conformance oracle pins this).
* :class:`XYYXObliviousRouting` -- O1TURN-style oblivious: alternate messages
  route X-first and reverse-dimension-first, halving worst-case dimension
  load without consulting network state.
* :class:`AdaptiveMinimalRouting` -- at every hop, pick the minimal-direction
  output whose link frees earliest (least congested), tie-broken in dimension
  order; needs the simulator's live per-slot link state.

Deadlock freedom is structural here: the simulator resolves each message to
completion in injection order (see :mod:`repro.noc.sim.simulator`), so
cyclic buffer wait-for graphs cannot form and no virtual channels are needed.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.noc.topology import Topology

#: Policy names understood by :func:`make_routing` (mirrored by
#: :data:`repro.core.config.ROUTING_KINDS`).
ROUTING_KINDS = ("dimension_ordered", "xy_yx", "adaptive")


class RoutingPolicy:
    """Base class: compute one message's route over a topology's link slots."""

    kind = "abstract"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: The slot numbering routes are expressed in.
        self.layout = topology.slot_layout()

    def route(self, src: int, dst: int, message_index: int, link_free: List[float]) -> List[int]:
        """Link slots from ``src`` to ``dst``, in route order.

        ``message_index`` is the injection sequence number (the oblivious
        policy's only source of variety); ``link_free[slot]`` is when that
        link is next free (the adaptive policy's congestion signal).
        """
        raise NotImplementedError


class DimensionOrderedRouting(RoutingPolicy):
    """X-then-Y(-then-Z) routing: the links of ``Topology.route``."""

    kind = "dimension_ordered"

    def route(self, src: int, dst: int, message_index: int, link_free: List[float]) -> List[int]:
        return self.layout.route(src, dst)


class XYYXObliviousRouting(RoutingPolicy):
    """Oblivious O1TURN-style routing: alternate dimension orders per message.

    Even-indexed messages route in dimension order (X first), odd-indexed
    messages in reverse dimension order (Y -- or Z on 3D stacks -- first).
    This needs no network state yet spreads the dimension-turn hotspot over
    both orders, which is the classic near-optimal oblivious scheme for
    meshes and tori.
    """

    kind = "xy_yx"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        dimensions = self.layout.dimensions
        self._orders = (dimensions, dimensions[::-1])

    def route(self, src: int, dst: int, message_index: int, link_free: List[float]) -> List[int]:
        return self.layout.route(src, dst, self._orders[message_index % 2])


class AdaptiveMinimalRouting(RoutingPolicy):
    """Minimal-adaptive routing: steer each hop toward the least-busy link.

    At every router the candidates are the first hop of every dimension that
    still has displacement to cover; the policy takes the candidate slot
    whose link is free earliest according to the simulator's live link
    state.  Ties (equally free links) resolve in dimension order, so the
    policy degenerates to dimension-ordered routing on an idle network and
    the choice is fully deterministic.
    """

    kind = "adaptive"

    def route(self, src: int, dst: int, message_index: int, link_free: List[float]) -> List[int]:
        ports = self.layout.ports
        dimensions = self.layout.dimensions
        slots = []
        tile = src
        while tile != dst:
            best = -1
            for stride, size, legs in dimensions:
                here = tile // stride % size
                leg = legs[dst // stride % size - here + size - 1]
                if leg:
                    step, port = leg[0]
                    slot = tile * ports + port
                    free = link_free[slot]
                    # Strictly earlier only: a tie keeps the lower dimension.
                    if best < 0 or free < best_free:
                        best, best_free = slot, free
                        move = ((here + step) % size - here) * stride
            slots.append(best)
            tile += move
        return slots


_ROUTING_CLASSES = {
    policy.kind: policy
    for policy in (DimensionOrderedRouting, XYYXObliviousRouting, AdaptiveMinimalRouting)
}


def make_routing(kind: str, topology: Topology) -> RoutingPolicy:
    """Factory for routing policies by name (see :data:`ROUTING_KINDS`)."""
    key = kind.strip().lower()
    if key not in _ROUTING_CLASSES:
        raise ConfigurationError(
            f"unknown routing policy {kind!r}; expected one of {sorted(_ROUTING_CLASSES)}"
        )
    return _ROUTING_CLASSES[key](topology)

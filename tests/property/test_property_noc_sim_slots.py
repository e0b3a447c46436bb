"""Equivalence: the flat per-slot ``NocSimulator`` schedules like the
dict-and-deque simulator it replaced.

The reference below is that simulator and its three tile-path routing
policies, copied verbatim but for its telemetry: tuple-keyed
``_link_free``, one ``deque`` of credits per link, a per-policy route
cache, and ``minimal_next_hops`` (then a ``Topology`` method, here a
function of the topology).  Its routes come
from the greedy per-kind decompositions of ``tests/noc/reference_routing.py``,
not from the topology's own routes.  On every grid of
``SMALL_GRIDS`` -- every topology kind, ruche factors 2-4, 1-wide
dimensions, 3D depths 1-3 -- random traces under all three policies, queue
depths 1-6, 1-4 flits and tied, fractional and negative send times must
give the same arrival for every message, the same ``link_flits``,
``stats()`` and injection/ejection port times.
"""

from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.noc.sim import simulator as slot_simulator
from repro.noc.topology import Topology, make_topology
from tests.noc import reference_routing
from tests.property.test_property_batched_routes import SMALL_GRIDS, grid_id

Link = Tuple[int, int]


# --------------------------------------------------------------- reference
# Verbatim but for ``minimal_next_hops``, which took ``self`` as a method,
# and the routes and addressing it and the two oblivious policies read,
# which call the reference routing instead of the topology.


def minimal_next_hops(topology: Topology, cur: int, dst: int) -> List[Tuple[int, int]]:
    """Minimal next-hop candidates from ``cur`` toward ``dst``.

    Returns ``(dimension, next_tile)`` pairs, one per dimension that still
    has displacement to cover, in dimension order (so taking the first
    candidate at every step reproduces dimension-ordered routing).  The
    per-dimension step is the same greedy first hop ``Topology.route`` takes,
    so express (ruche) channels and shortest-direction torus wraps are
    honoured by every policy built on this.
    """
    sizes = topology.dimension_sizes()
    cur_c = reference_routing.coords(topology, cur)
    dst_c = reference_routing.coords(topology, dst)
    candidates: List[Tuple[int, int]] = []
    for dim, size in enumerate(sizes):
        offsets = reference_routing.next_hop_offsets(topology, dst_c[dim] - cur_c[dim], size)
        if not offsets:
            continue
        nxt = list(cur_c)
        nxt[dim] = (nxt[dim] + offsets[0]) % size
        candidates.append((dim, reference_routing.tile_at(topology, nxt)))
    return candidates


#: Link availability lookup the adaptive policy consults: ``(src, dst) -> time``.
LinkState = Callable[[Tuple[int, int]], float]

#: Policy names understood by :func:`make_routing` (mirrored by
#: :data:`repro.core.config.ROUTING_KINDS`).
ROUTING_KINDS = ("dimension_ordered", "xy_yx", "adaptive")


class RoutingPolicy:
    """Base class: compute one message's route over a topology."""

    kind = "abstract"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def route(self, src: int, dst: int, message_index: int, link_state: LinkState) -> List[int]:
        """Ordered tile list from ``src`` to ``dst`` inclusive.

        ``message_index`` is the injection sequence number (the oblivious
        policy's only source of variety); ``link_state`` reports when a
        directed link is next free (the adaptive policy's congestion signal).
        """
        raise NotImplementedError


class DimensionOrderedRouting(RoutingPolicy):
    """X-then-Y(-then-Z) routing: identical to ``Topology.route``.

    Routes are independent of message index and network state, so they are
    cached per (src, dst) pair -- the same memoization the analytical model
    uses.
    """

    kind = "dimension_ordered"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._cache: Dict[Tuple[int, int], List[int]] = {}

    def route(self, src: int, dst: int, message_index: int, link_state: LinkState) -> List[int]:
        key = (src, dst)
        path = self._cache.get(key)
        if path is None:
            path = reference_routing.route(self.topology, src, dst)
            self._cache[key] = path
        return path


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
        dims = tuple(range(len(topology.dimension_sizes())))
        self._orders = (dims, tuple(reversed(dims)))

    def route(self, src: int, dst: int, message_index: int, link_state: LinkState) -> List[int]:
        order = self._orders[message_index % 2]
        return reference_routing.route(self.topology, src, dst, order)


class AdaptiveMinimalRouting(RoutingPolicy):
    """Minimal-adaptive routing: steer each hop toward the least-busy link.

    At every router the candidate set is the per-dimension minimal next hops;
    the policy picks the candidate whose outgoing link is free earliest
    according to the simulator's live link state.  Ties (equally free links)
    resolve in dimension order, so the policy degenerates to
    dimension-ordered routing on an idle network and the choice is fully
    deterministic.
    """

    kind = "adaptive"

    def route(self, src: int, dst: int, message_index: int, link_state: LinkState) -> List[int]:
        path = [src]
        cur = src
        while cur != dst:
            candidates = minimal_next_hops(self.topology, cur, dst)
            if not candidates:  # pragma: no cover - minimal hops always progress
                raise ConfigurationError(
                    f"routing stalled at tile {cur} toward {dst} on "
                    f"{self.topology.describe()}"
                )
            best = min(candidates, key=lambda cand: (link_state((cur, cand[1])), cand[0]))
            cur = best[1]
            path.append(cur)
        return path


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


# ------------------------------------------------------------------- tests


def random_trace(topology, rng, count):
    """``count`` messages with nondecreasing send times from below zero.

    Steps are often 0 (tied sends queue behind each other), fractional, and
    now and then long enough for every buffer to drain.
    """
    srcs = rng.integers(0, topology.num_tiles, size=count).tolist()
    dsts = rng.integers(0, topology.num_tiles, size=count).tolist()
    flits = rng.integers(1, 5, size=count).tolist()
    steps = rng.choice([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 2.75, 60.0], size=count)
    times = (np.cumsum(steps) - 6.5).tolist()
    return list(zip(srcs, dsts, flits, times))


@pytest.mark.parametrize("routing", ROUTING_KINDS)
@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=grid_id)
def test_slot_simulator_equals_dict_and_deque_reference(grid, routing):
    kind, width, height, extra = grid
    topology = make_topology(kind, width, height, **extra)
    rng = np.random.default_rng([SMALL_GRIDS.index(grid), ROUTING_KINDS.index(routing)])
    for queue_depth in range(1, 7):
        simulator = slot_simulator.NocSimulator(topology, routing, queue_depth)
        reference = NocSimulator(topology, routing, queue_depth)
        for src, dst, flits, now in random_trace(topology, rng, 150):
            expected = reference.send(src, dst, flits, now)
            assert simulator.send(src, dst, flits, now) == expected
        assert simulator.link_flits == reference.link_flits
        assert simulator.stats() == reference.stats()
        assert simulator._inject_free == reference._inject_free
        assert simulator._eject_free == reference._eject_free

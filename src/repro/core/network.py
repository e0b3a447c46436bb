"""NetworkModel seam: how the cycle engine turns one message into a latency.

Two implementations sit behind one ``send(src, dst, flits, now) -> arrival``
interface, selected by the ``network`` field of
:class:`~repro.core.config.MachineConfig`:

* :class:`AnalyticalNetwork` (``network="analytical"``, the default): the
  seed behaviour, byte-identical to the original engine code -- messages
  traverse their dimension-ordered route charging per-link serialization
  with persistent busy times, but routers have infinite buffers and flits
  never pipeline (a message holds each link for its full length).
* :class:`~repro.noc.sim.simulator.NocSimulator` (``network="simulated"``):
  the flit-level model -- finite input queues, credit backpressure,
  injection/ejection port serialization and pluggable routing, so messages
  experience real queueing delay where traffic concentrates.

Both are deterministic and both are driven by the cycle engine's event loop
in nondecreasing time order, so either choice keeps simulation results
replayable, cacheable and distributable.
"""

from __future__ import annotations

from repro.noc.sim.simulator import NocSimulator
from repro.noc.topology import Topology


class AnalyticalNetwork:
    """Zero-buffer link-serialization model (the seed cycle-engine network).

    Each directed link has a persistent busy-until time; a message charges
    ``flits`` cycles to every link on its dimension-ordered route in
    sequence.  No queues, no credits, no pipelining -- exactly the original
    :meth:`CycleEngine._network_delay` arithmetic, kept bit-identical so
    ``network="analytical"`` reproduces historical results byte for byte.

    Routes are walked in closed form over the topology's
    :meth:`~repro.noc.topology.Topology.slot_layout` -- the per-dimension
    decomposition :meth:`Topology.route` walks, tabulated once per dimension
    and displacement: O(width + height) entries, no route cache.  A link is
    named by the tile it leaves and its output port, so busy-until times
    live in one flat list of ``num_tiles * ports`` slots, laid out as the
    :class:`~repro.noc.sim.simulator.NocSimulator` lays out its link state.
    """

    kind = "analytical"

    def __init__(self, topology: Topology) -> None:
        layout = topology.slot_layout()
        self._dimensions = layout.dimensions
        self._ports = layout.ports
        self._busy_until = [0.0] * (topology.num_tiles * layout.ports)

    def send(self, src: int, dst: int, flits: int, now: float) -> float:
        """Walk the route charging per-link serialization with persistent state."""
        busy_until = self._busy_until
        num_ports = self._ports
        time = now
        tile = src
        for stride, size, legs in self._dimensions:
            here = tile // stride % size
            base = tile - here * stride
            for step, port in legs[dst // stride % size - here + size - 1]:
                slot = tile * num_ports + port
                busy = busy_until[slot]
                time = (busy if busy > time else time) + flits
                busy_until[slot] = time
                here = (here + step) % size
                tile = base + here * stride
        return time


def make_network_model(config, topology: Topology, state=None):
    """Build the network model a machine configuration selects.

    ``network="analytical"`` returns :class:`AnalyticalNetwork`;
    ``network="simulated"`` returns a
    :class:`~repro.noc.sim.simulator.NocSimulator` honouring the config's
    ``routing`` and ``queue_depth`` knobs.  Both expose ``send`` and
    ``kind``.  When given the machine's columnar
    :class:`~repro.core.state.CoreState`, the simulator keeps its per-tile
    injection/ejection port times in the state's ``noc_inject_free`` /
    ``noc_eject_free`` arrays.
    """
    if config.network == "simulated":
        return NocSimulator(
            topology,
            routing=config.routing,
            queue_depth=config.queue_depth,
            state=state,
        )
    return AnalyticalNetwork(topology)

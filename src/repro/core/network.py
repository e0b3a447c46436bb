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

from itertools import groupby

import numpy as np

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
    :meth:`~repro.noc.topology.Topology.slot_layout`, one leg at a time: a
    leg's consecutive hops through one output port are consecutive
    positions of the layout's doubled
    :attr:`~repro.noc.topology.SlotLayout.cycle_order`, read forward from a
    +s port's first position and backward from a -s port's second.  A link
    is named by the tile it leaves and its output port, so busy-until times
    live in one flat list of ``num_tiles * ports`` slots, laid out as the
    :class:`~repro.noc.sim.simulator.NocSimulator` lays out its link state.
    Memory is O(slots) plus O(width + height) leg entries; no route cache.
    """

    kind = "analytical"

    def __init__(self, topology: Topology) -> None:
        layout = topology.slot_layout()
        first, second, _cycle = layout.cycle_order
        slot_at = np.empty(2 * layout.num_slots, dtype=np.int64)
        slot_at[first] = slot_at[second] = np.arange(layout.num_slots)
        self._slot_at = slot_at.tolist()
        starts = (first.tolist(), second.tolist())
        self._ports = layout.ports
        # Per dimension: (stride, size, legs), where legs[delta + size - 1]
        # lists (port, start positions, signed span, direction, offset) per
        # run of same-port hops; the run covers positions
        # start, start + direction, ... (span / direction of them).
        self._dimensions = []
        for stride, size, hop_table in layout.dimensions:
            legs = []
            for hops in hop_table:
                runs = []
                for (step, port), group in groupby(hops):
                    count = len(list(group))
                    direction = 1 if step > 0 else -1
                    runs.append((
                        port, starts[step < 0], count * direction, direction, step * count
                    ))
                legs.append(tuple(runs))
            self._dimensions.append((stride, size, legs))
        self._busy_until = [0.0] * (topology.num_tiles * layout.ports)

    def send(self, src: int, dst: int, flits: int, now: float) -> float:
        """Walk the route charging per-link serialization with persistent state."""
        busy_until = self._busy_until
        slot_at = self._slot_at
        num_ports = self._ports
        time = now
        tile = src
        for stride, size, legs in self._dimensions:
            here = tile // stride % size
            base = tile - here * stride
            for port, starts, span, direction, offset in legs[dst // stride % size - here + size - 1]:
                start = starts[tile * num_ports + port]
                for slot in slot_at[start : start + span : direction]:
                    busy = busy_until[slot]
                    time = (busy if busy > time else time) + flits
                    busy_until[slot] = time
                here = (here + offset) % size
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

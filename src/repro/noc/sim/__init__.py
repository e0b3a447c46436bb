"""Contention-aware NoC simulation: flit-level routers, queues and routing.

The :mod:`repro.noc.analytical` link-load model is a *zero-contention lower
bound*: it charges every flit to every link on its route but never makes one
message wait for another's buffers.  This package adds the other half of the
story:

* :mod:`repro.noc.sim.routing` -- pluggable routing policies (dimension-
  ordered, oblivious XY/YX, minimal-adaptive) that return a message's link
  slots, walked in closed form over the topology's per-dimension leg table
  (:meth:`~repro.noc.topology.Topology.slot_layout`), so every policy works
  on every topology including the 3D stacks;
* :mod:`repro.noc.sim.simulator` -- :class:`NocSimulator`, a deterministic
  flit-level virtual-cut-through model with finite per-router input queues,
  credit backpressure, link serialization and injection/ejection port
  serialization.  Its link state is flat per-slot lists -- busy-until
  times, one ring of credit release times per slot, flit counts -- in the
  (tile, output port) layout the analytical network model shares.

The cycle engine selects between the two through the ``network`` knob of
:class:`~repro.core.config.MachineConfig` (see :mod:`repro.core.network`).
"""

from repro.noc.sim.routing import (
    ROUTING_KINDS,
    AdaptiveMinimalRouting,
    DimensionOrderedRouting,
    RoutingPolicy,
    XYYXObliviousRouting,
    make_routing,
)
from repro.noc.sim.simulator import NocSimulator

__all__ = [
    "ROUTING_KINDS",
    "AdaptiveMinimalRouting",
    "DimensionOrderedRouting",
    "NocSimulator",
    "RoutingPolicy",
    "XYYXObliviousRouting",
    "make_routing",
]

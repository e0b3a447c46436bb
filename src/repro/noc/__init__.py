"""Network-on-chip substrate: topologies, routing, link-load and traffic models."""

from repro.noc.topology import (
    Mesh2D,
    Mesh3D,
    RucheTorus2D,
    Topology,
    Topology3D,
    Torus2D,
    Torus3D,
    make_topology,
)
from repro.noc.analytical import LinkLoadModel
from repro.noc.sim import NocSimulator, make_routing

__all__ = [
    "Topology",
    "Topology3D",
    "Mesh2D",
    "Mesh3D",
    "Torus2D",
    "Torus3D",
    "RucheTorus2D",
    "make_topology",
    "make_routing",
    "LinkLoadModel",
    "NocSimulator",
]

"""Network topology substrate.

The paper's system model (section 5.1) is a set of sites connected by
bi-directional, fallible links. This package provides an immutable
:class:`~repro.topology.model.Topology` value object plus generators for
every topology family the paper touches:

- ring networks (the paper's base topology),
- ring-plus-chords (the paper's Topologies 0, 1, 2, 4, 16, 256, 4949),
- fully connected networks,
- single-bus networks (modelled as a star through a hub, matching the
  analytic bus density in section 4.2),
- and general graphs (grid, tree, Erdős–Rényi) for the estimator and
  simulator, which work on arbitrary topologies.
"""

from repro.topology.model import Link, Topology
from repro.topology.chords import chord_endpoints
from repro.topology.generators import (
    bus,
    erdos_renyi,
    fully_connected,
    grid,
    paper_topology,
    random_tree,
    ring,
    ring_with_chords,
    star,
)

__all__ = [
    "Link",
    "Topology",
    "bus",
    "chord_endpoints",
    "erdos_renyi",
    "fully_connected",
    "grid",
    "paper_topology",
    "random_tree",
    "ring",
    "ring_with_chords",
    "star",
]

"""Connectivity substrate: component computation on partially-failed networks.

Site and link failures partition the network into *components* — maximal
sets of up sites that can reach each other over up links. Everything the
quorum machinery needs from the network reduces to one vector: for each
site, the total number of votes in its current component (a down site is
"in a component of size zero", matching the paper's access accounting).

One network state is labelled by a flood over Python-int bitmasks of the
live graph (``component_labels``), the same masks and search the
incremental ``ComponentTracker`` keeps, so labelling one state, whatever
its density, loads no scipy. Blocks of states go to the block labeller,
which contracts a topology's path into runs and labels them with numpy
where most links are path links; only on the plain site graph of a dense
network does it call scipy.sparse.csgraph, which it imports then.
"""

from repro.connectivity.components import (
    batched_component_labels,
    batched_vote_histogram,
    batched_vote_totals,
    component_labels,
    component_vote_totals,
)
from repro.connectivity.dynamic import ComponentTracker, NetworkState

__all__ = [
    "ComponentTracker",
    "NetworkState",
    "batched_component_labels",
    "batched_vote_histogram",
    "batched_vote_totals",
    "component_labels",
    "component_vote_totals",
]

"""Connectivity substrate: component computation on partially-failed networks.

Site and link failures partition the network into *components* — maximal
sets of up sites that can reach each other over up links. Everything the
quorum machinery needs from the network reduces to one vector: for each
site, the total number of votes in its current component (a down site is
"in a component of size zero", matching the paper's access accounting).

One network state is labelled by a flood over Python-int bitmasks of the
live graph (``component_labels``), the same masks and search the
incremental ``ComponentTracker`` keeps. Blocks of states go to the block
labeller, which contracts a topology's path into runs and labels them
with a numpy union where enough links are path links; on a dense network
it floods each state's bitmasks, on any other it takes the union over the
site graph. Neither imports scipy.
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

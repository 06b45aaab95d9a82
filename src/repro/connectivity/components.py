"""Component computation over a partially-failed topology.

The central quantity (paper, section 4): given which sites and links are
currently up, each up site belongs to a *component* — the set of up sites
reachable from it over up links — and what matters to the quorum consensus
protocol is the **total votes inside that component**. Down sites are
treated as belonging to a component with zero votes, so the availability
accounting naturally counts accesses submitted to down sites as denials
(the ACC metric).

``component_labels`` picks between two labellers on the link count it
observes (:data:`CSGRAPH_THRESHOLD`): a pure-Python union-find with path
halving for sparse networks (the paper's rings) and a
scipy.sparse.csgraph call on the live subgraph for dense ones. Both
honour one label contract; the tests hold each against an independent
min-propagation labeller (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import TopologyError
from repro.topology.model import Topology

__all__ = [
    "component_labels",
    "batched_component_labels",
    "batched_component_entries",
    "batched_vote_totals",
    "component_vote_totals",
    "votes_in_component_of",
    "component_members",
    "gather_groups",
]

#: Label assigned to down sites; real components use labels >= 0.
DOWN_LABEL = -1


def _validate_masks(topology: Topology, site_up: np.ndarray, link_up: np.ndarray) -> None:
    if site_up.shape != (topology.n_sites,):
        raise TopologyError(
            f"site_up must have shape ({topology.n_sites},), got {site_up.shape}"
        )
    if link_up.shape != (topology.n_links,):
        raise TopologyError(
            f"link_up must have shape ({topology.n_links},), got {link_up.shape}"
        )


#: Link count above which the scipy.csgraph backend beats union-find.
#: Re-measured after the incremental ComponentTracker landed (it absorbs
#: most small-topology per-event calls, leaving this dispatch dominated
#: by cold full recomputes): on 101-site paper topologies at p=0.9,
#: union-find wins through 1125 links (211µs vs 490µs per call — scipy's
#: sparse-construction overhead dominates), csgraph wins from 2149 links
#: (381µs vs 479µs) through the fully-connected 5050-link case (482µs vs
#: 967µs). The crossover sits near 1600 links.
CSGRAPH_THRESHOLD = 1_600


def component_labels(
    topology: Topology,
    site_up: np.ndarray,
    link_up: np.ndarray,
) -> np.ndarray:
    """Label each site with its component id (auto-dispatching backend).

    Parameters
    ----------
    topology:
        The static network.
    site_up, link_up:
        Boolean masks over sites and link ids. A link is *usable* iff the
        link itself and both endpoints are up.

    Returns
    -------
    numpy.ndarray
        int64 array of length ``n_sites``. Up sites get consecutive
        component ids starting at 0; down sites get :data:`DOWN_LABEL`.
        Component ids are consistent within one call but carry no meaning
        across calls.

    Dispatches between the pure-Python union-find (sparse networks — the
    simulator's per-event hot path on the paper's ring topologies) and
    the scipy.sparse.csgraph backend (dense networks) on link count; both
    honour the same label contract and are cross-checked in the tests.
    """
    site_up = np.asarray(site_up, dtype=bool)
    link_up = np.asarray(link_up, dtype=bool)
    _validate_masks(topology, site_up, link_up)
    if topology.n_links <= CSGRAPH_THRESHOLD:
        return _labels_unionfind(topology, site_up, link_up)
    return _labels_csgraph(topology, site_up, link_up)


def _labels_csgraph(
    topology: Topology,
    site_up: np.ndarray,
    link_up: np.ndarray,
) -> np.ndarray:
    n = topology.n_sites
    u, v = topology.link_endpoint_arrays()
    usable = link_up & site_up[u] & site_up[v]
    uu, vv = u[usable], v[usable]
    ones = np.ones(uu.shape[0], dtype=np.int8)
    graph = coo_matrix((ones, (uu, vv)), shape=(n, n))
    _, raw_labels = connected_components(graph, directed=False)

    labels = np.full(n, DOWN_LABEL, dtype=np.int64)
    up_idx = np.nonzero(site_up)[0]
    # Re-map the raw labels of up sites onto 0..k-1; down sites keep -1.
    # Down sites received their own singleton raw labels, which we discard.
    raw_up = raw_labels[up_idx]
    _, compact = np.unique(raw_up, return_inverse=True)
    labels[up_idx] = compact
    return labels


def _labels_unionfind(
    topology: Topology,
    site_up: np.ndarray,
    link_up: np.ndarray,
) -> np.ndarray:
    n = topology.n_sites
    u, v = topology.link_endpoint_arrays()
    usable = link_up & site_up[u] & site_up[v]
    idx = np.nonzero(usable)[0]

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(u[idx].tolist(), v[idx].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    labels = np.full(n, DOWN_LABEL, dtype=np.int64)
    next_label = 0
    root_to_label: Dict[int, int] = {}
    for site in np.nonzero(site_up)[0].tolist():
        root = find(site)
        label = root_to_label.get(root)
        if label is None:
            label = root_to_label[root] = next_label
            next_label += 1
        labels[site] = label
    return labels


def batched_component_labels(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> np.ndarray:
    """Label B sampled network states with ONE compiled csgraph call.

    Builds a block-diagonal sparse graph over ``B * n_sites`` nodes —
    state ``k``'s copy of site ``s`` is node ``k * n_sites + s``, and
    usable links only ever join nodes inside one block — so a single
    :func:`scipy.sparse.csgraph.connected_components` invocation labels
    every partition of every state at once. This is the Monte-Carlo
    density estimator's hot path: it replaces a Python loop of B sparse
    constructions with one.

    Parameters
    ----------
    site_masks, link_masks:
        Boolean arrays of shape ``(B, n_sites)`` / ``(B, n_links)``.

    Returns
    -------
    numpy.ndarray
        int64 labels of shape ``(B, n_sites)``. Up sites carry component
        ids that are unique across the WHOLE batch (``0..K-1`` over all
        states, *not* compacted per state); down sites get
        :data:`DOWN_LABEL`.
    """
    site_masks = np.asarray(site_masks, dtype=bool)
    link_masks = np.asarray(link_masks, dtype=bool)
    if site_masks.ndim != 2 or site_masks.shape[1] != topology.n_sites:
        raise TopologyError(
            f"site_masks must have shape (B, {topology.n_sites}), got {site_masks.shape}"
        )
    if link_masks.shape != (site_masks.shape[0], topology.n_links):
        raise TopologyError(
            f"link_masks must have shape ({site_masks.shape[0]}, {topology.n_links}), "
            f"got {link_masks.shape}"
        )
    _, raw = _batched_raw_labels(topology, site_masks, link_masks)
    B, n = site_masks.shape
    labels = np.full(B * n, DOWN_LABEL, dtype=np.int64)
    up_idx = np.nonzero(site_masks.ravel())[0]
    _, compact = np.unique(raw[up_idx], return_inverse=True)
    labels[up_idx] = compact
    return labels.reshape(B, n)


def _batched_raw_labels(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> tuple:
    """One block-diagonal csgraph call over B states; raw (uncompacted) labels.

    Returns ``(n_components, raw)`` where ``raw`` has shape ``(B * n,)``
    and down sites carry their own singleton component ids (no -1
    marking) — callers mask with ``site_masks`` themselves.
    """
    B, n = site_masks.shape
    u, v = topology.link_endpoint_arrays()
    usable = link_masks & site_masks[:, u] & site_masks[:, v]
    state_idx, link_idx = np.nonzero(usable)
    offsets = state_idx * n
    uu = u[link_idx] + offsets
    vv = v[link_idx] + offsets
    ones = np.ones(uu.shape[0], dtype=np.int8)
    graph = coo_matrix((ones, (uu, vv)), shape=(B * n, B * n))
    return connected_components(graph, directed=False)


def batched_vote_totals(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
    votes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused masks → per-site component vote totals for B states.

    Equivalent to :func:`batched_component_labels` followed by a per-state
    :func:`component_vote_totals`, but skips the per-state label
    compaction entirely — the Monte-Carlo density estimator only needs
    totals, and compaction is the most expensive non-compiled step.
    """
    site_masks = np.asarray(site_masks, dtype=bool)
    link_masks = np.asarray(link_masks, dtype=bool)
    if site_masks.ndim != 2 or site_masks.shape[1] != topology.n_sites:
        raise TopologyError(
            f"site_masks must have shape (B, {topology.n_sites}), got {site_masks.shape}"
        )
    if link_masks.shape != (site_masks.shape[0], topology.n_links):
        raise TopologyError(
            f"link_masks must have shape ({site_masks.shape[0]}, {topology.n_links}), "
            f"got {link_masks.shape}"
        )
    votes_arr = topology.votes if votes is None else np.asarray(votes, dtype=np.int64)
    n_comp, raw = _batched_raw_labels(topology, site_masks, link_masks)
    B, n = site_masks.shape
    up = site_masks.ravel()
    sums = np.bincount(
        raw[up], weights=np.tile(votes_arr, B)[up].astype(np.float64),
        minlength=n_comp,
    )
    totals = np.where(up, sums[raw], 0.0).astype(np.int64)
    return totals.reshape(B, n)


def batched_component_entries(labels: np.ndarray) -> tuple:
    """Index the up entries of a batched label matrix by component id.

    ``labels`` is the ``(B, n_sites)`` output of
    :func:`batched_component_labels` (batch-global ids, down sites at
    ``-1``). Returns ``(entries, starts)`` where ``entries`` holds flat
    positions into ``labels.ravel()`` sorted by component, and component
    ``c``'s members occupy ``entries[starts[c]:starts[c + 1]]``. This is
    the batch generalization of :func:`component_members`, precomputed
    once so delta-scorers can gather "every entry in the component
    containing site ``s`` of state ``k``" without touching the other
    states (DESIGN.md §10).
    """
    flat = np.asarray(labels, dtype=np.int64).ravel()
    up_pos = np.nonzero(flat >= 0)[0]
    lab = flat[up_pos]
    order = np.argsort(lab, kind="stable")
    entries = up_pos[order]
    n_components = int(lab.max()) + 1 if lab.size else 0
    starts = np.searchsorted(lab[order], np.arange(n_components + 1))
    return entries, starts


def gather_groups(
    entries: np.ndarray, starts: np.ndarray, group_ids: np.ndarray
) -> np.ndarray:
    """Concatenate the members of the named groups (vectorized multi-slice).

    ``(entries, starts)`` come from :func:`batched_component_entries`;
    ``group_ids`` names components. Equivalent to
    ``np.concatenate([entries[starts[c]:starts[c+1]] for c in group_ids])``
    without the Python loop.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    lo = starts[group_ids]
    hi = starts[group_ids + 1]
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=entries.dtype)
    # Multi-arange: block i covers lo[i] .. hi[i]-1 of the sorted index.
    idx = np.repeat(hi - np.cumsum(lens), lens) + np.arange(total)
    return entries[idx]


def component_vote_totals(
    labels: np.ndarray,
    votes: np.ndarray,
) -> np.ndarray:
    """Per-site total votes of the component containing each site.

    Down sites (label ``-1``) get zero votes — the paper's convention that
    a down site is a member of a component of size zero.
    """
    labels = np.asarray(labels, dtype=np.int64)
    votes = np.asarray(votes, dtype=np.int64)
    if labels.shape != votes.shape:
        raise TopologyError(
            f"labels shape {labels.shape} != votes shape {votes.shape}"
        )
    up = labels >= 0
    n_components = int(labels.max()) + 1 if up.any() else 0
    totals = np.zeros(n_components, dtype=np.int64)
    np.add.at(totals, labels[up], votes[up])
    out = np.zeros(labels.shape[0], dtype=np.int64)
    out[up] = totals[labels[up]]
    return out


def votes_in_component_of(
    topology: Topology,
    site: int,
    site_up: np.ndarray,
    link_up: np.ndarray,
) -> int:
    """Total votes in the component containing ``site`` (0 if down)."""
    if not 0 <= site < topology.n_sites:
        raise TopologyError(f"unknown site {site}")
    labels = component_labels(topology, site_up, link_up)
    totals = component_vote_totals(labels, topology.votes)
    return int(totals[site])


def component_members(labels: np.ndarray) -> List[np.ndarray]:
    """Group site ids by component: ``result[c]`` holds component ``c``'s sites.

    Down sites are omitted; use ``labels == DOWN_LABEL`` to find them.
    """
    labels = np.asarray(labels, dtype=np.int64)
    up = labels >= 0
    n_components = int(labels.max()) + 1 if up.any() else 0
    order = np.argsort(labels[up], kind="stable")
    up_sites = np.nonzero(up)[0][order]
    sorted_labels = labels[up_sites]
    boundaries = np.searchsorted(sorted_labels, np.arange(n_components + 1))
    return [up_sites[boundaries[c]:boundaries[c + 1]] for c in range(n_components)]

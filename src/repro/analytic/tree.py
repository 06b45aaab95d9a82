"""Exact component-vote density for tree networks, in polynomial time.

The paper proves computing ``f_i`` is #P-complete for *general* graphs.
Trees are a tractable special case the paper does not exploit: with no
cycles, the failure events that separate a site from each of its
subtrees are independent, so the density factors over the tree and can
be assembled with convolutions.

Recurrence (rooting the tree at the query site ``i``): for an up node
``u``, let ``D_u`` be the distribution of the votes of the component
containing ``u`` *within u's subtree*. Each child ``c`` contributes

- nothing, with probability ``1 - r_uc * p_c`` (edge down or child down),
- an independent draw of ``D_c`` with probability ``r_uc * p_c``,

so ``D_u = votes(u) + sum_c B_c`` where the ``B_c`` are independent —
a chain of convolutions. Finally ``f_i(0) = 1 - p_i`` and
``f_i = p_i * D_i`` above zero. Complexity is O(n * T^2) worst case
(each convolution is vectorized in numpy).

This also subsumes the star and the paper's single-bus architecture
(a star through a zero-vote hub whose reliability plays the bus's),
giving an independent cross-check of :mod:`repro.analytic.bus`.
"""

from __future__ import annotations

import numpy as np

from repro.analytic.density import Reliability, reliability_vector, validate_density
from repro.errors import TopologyError
from repro.topology.model import Topology

__all__ = ["tree_density", "tree_density_matrix"]


def _check_tree(topology: Topology) -> None:
    if topology.n_links != topology.n_sites - 1 or not topology.is_connected():
        raise TopologyError(
            f"{topology!r} is not a tree (need a connected graph with n-1 links)"
        )


def tree_density(
    topology: Topology,
    site: int,
    p: Reliability,
    r: Reliability,
) -> np.ndarray:
    """Exact ``f_site(v)`` for a tree topology (length ``T + 1``).

    ``p`` / ``r`` may be scalars or per-site / per-link vectors, so
    heterogeneous hardware and the bus encoding are covered.
    """
    _check_tree(topology)
    if not 0 <= site < topology.n_sites:
        raise TopologyError(f"unknown site {site}")
    site_rel = reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = reliability_vector(r, topology.n_links, "link reliability")
    T = topology.total_votes
    votes = topology.votes

    # Iterative post-order DFS from the query site (trees can be deep).
    parent: dict[int, int] = {site: -1}
    order: list[int] = []
    stack = [site]
    while stack:
        u = stack.pop()
        order.append(u)
        for nbr in topology.neighbors(u):
            if nbr != parent[u]:
                parent[nbr] = u
                stack.append(nbr)

    # D[u]: distribution (over 0..T) of subtree-component votes given u up.
    D: dict[int, np.ndarray] = {}
    for u in reversed(order):
        dist = np.zeros(T + 1, dtype=np.float64)
        dist[int(votes[u])] = 1.0
        for c in topology.neighbors(u):
            if c == parent[u]:
                continue
            keep = link_rel[topology.link_id(u, c)] * site_rel[c]
            if keep > 0.0:
                child = D[c]
                # B_c = 0 w.p. (1-keep); D_c w.p. keep — then convolve.
                branch = keep * child
                branch[0] += 1.0 - keep
                dist = np.convolve(dist, branch)[: T + 1]
            # keep == 0: child contributes nothing; dist unchanged.
        D[u] = dist

    f = site_rel[site] * D[site]
    f[0] += 1.0 - site_rel[site]
    return validate_density(f, total_votes=T, tolerance=1e-9)


def tree_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
) -> np.ndarray:
    """Exact density matrix ``(n_sites, T+1)`` for a tree.

    O(n^2 * T^2) worst case; for large trees prefer calling
    :func:`tree_density` only at the sites you need.
    """
    _check_tree(topology)
    return np.stack([tree_density(topology, s, p, r) for s in topology.sites()])

"""Closed-form component-vote density for a fully-connected network.

Paper, section 4.2: with ``n`` sites, one vote per site, site reliability
``p`` and link reliability ``r``,

    f_i(v) = C(n-1, v-1) p^v ((1-p) + p (1-r)^v)^{n-v} Rel(v, r)

for ``1 <= v <= n``, plus ``f_i(0) = 1 - p`` for the down site.

Why this is exact on a complete graph: the component of an up site ``i``
is exactly a set ``S`` (|S| = v, i in S) iff

- every site of ``S`` is up: ``p^{v-1}`` beyond ``i`` itself (``p^v``
  including the ``P(i up)`` factor),
- the subgraph induced by ``S`` is connected using only links inside
  ``S``: ``Rel(v, r)`` — a path through an outside site is impossible,
  because an up outside site with a live link into ``S`` would belong to
  the component,
- every one of the remaining ``n - v`` sites is either down (``1-p``) or
  up with all ``v`` of its links into ``S`` down (``p (1-r)^v``); these
  events are independent across outside sites since they involve disjoint
  link sets.

``C(n-1, v-1)`` counts the choices of the other ``v-1`` members.
"""

from __future__ import annotations

import numpy as np

from repro.analytic.density import normalize_density, validate_density
from repro.analytic.rel import rel_table
from repro.errors import DensityError, TopologyError
from repro.topology.model import Topology

__all__ = ["complete_density", "complete_density_matrix"]


def complete_density(n_sites: int, p: float, r: float) -> np.ndarray:
    """The fully-connected ``f_i(v)`` as an array of length ``n_sites + 1``."""
    if n_sites < 1:
        raise TopologyError(f"need at least one site, got {n_sites}")
    for label, value in (("site reliability p", p), ("link reliability r", r)):
        if not 0.0 <= value <= 1.0:
            raise DensityError(f"{label} must be in [0, 1], got {value}")

    from scipy.special import comb

    n = n_sites
    f = np.zeros(n + 1, dtype=np.float64)
    f[0] = 1.0 - p

    v = np.arange(1, n + 1)
    vf = v.astype(np.float64)
    choose = comb(n - 1, v - 1)
    isolation = ((1.0 - p) + p * (1.0 - r) ** vf) ** (n - vf)
    connected = rel_table(n, r)[1:]
    f[1:] = choose * p**vf * isolation * connected
    # The expression is mathematically exact, but Rel and the large
    # binomials interact at ~1e-12 scale for big n; validate loosely and
    # renormalize so downstream consumers see a clean distribution.
    validate_density(f, total_votes=n, tolerance=1e-6)
    return normalize_density(f)


def complete_density_matrix(topology: Topology, p: float, r: float) -> np.ndarray:
    """Density matrix for a uniform-vote complete topology (same row per site)."""
    if not topology.is_fully_connected():
        raise TopologyError(
            f"{topology!r} is not fully connected; the closed form does not apply"
        )
    if not np.all(topology.votes == 1):
        raise TopologyError("complete-graph closed form requires one vote per site")
    row = complete_density(topology.n_sites, p, r)
    return np.tile(row, (topology.n_sites, 1))

"""Exact component-vote densities by exhaustive state enumeration.

The paper proves that computing ``f_i`` in a general network is
#P-complete, so no polynomial algorithm is expected. For *small* networks,
though, we can enumerate all ``2^(n_sites + n_links)`` up/down states,
weight each by its probability, and accumulate the exact density. This
module is the library's ground truth: the closed forms
(:mod:`repro.analytic.ring`, :mod:`~repro.analytic.complete`,
:mod:`~repro.analytic.bus`), the Monte-Carlo estimator, and the simulator's
stationary behaviour are all validated against it in the test suite.

Component reliabilities may be uniform (scalars ``p``, ``r``) or per
component (arrays), which is how the star-with-perfect-spokes encoding of
the bus network is enumerated exactly.

One kernel computes the matrix (DESIGN.md §15): a subset-doubling DFS
over the fallible components that only branches on a link where it
actually joins two distinct live components — everywhere else the link's
marginal is exactly ``r + (1 - r) = 1`` and both branches collapse into
one. Ring-like topologies collapse from ``2^28`` states to under a
million leaf rows. Accumulation is regrouped, so results equal a
per-state loop (the oracles in ``tests/oracles.py``) to float round-off
(≤1e-12), not bitwise. Cap: :data:`MAX_COMPONENTS` (2^28 states).
"""

from __future__ import annotations

import numpy as np

from repro.analytic.density import Reliability, reliability_vector
from repro.connectivity.components import entry_vote_totals
from repro.errors import DensityError, TopologyError
from repro.telemetry.recorder import current as _current_recorder
from repro.topology.model import Topology

__all__ = [
    "enumerate_density",
    "enumerate_density_matrix",
    "resolve_backend",
]

#: Refuse to enumerate beyond this many fallible components (2^28
#: states; the DFS is memory-bounded by its row cap, see DESIGN.md §15).
MAX_COMPONENTS = 28

#: Cap on the DFS's live partial-state rows. Its split points move with
#: the cap, so the output bytes are those of this value (tests
#: monkeypatch it to exercise the stack-splitting path).
ROW_CAP = 8_192

#: Row caps below this are clamped up; the DFS needs headroom to double.
MIN_ROW_CAP = 64


def resolve_backend() -> str:
    """Name of the one enumeration kernel, ``"collapse-dfs"``.

    The benchmark harness records it with every run.
    """
    return "collapse-dfs"


def _free_components(site_rel: np.ndarray, link_rel: np.ndarray) -> tuple:
    """Indices of fallible sites/links; components pinned at 0/1 are not
    enumerated, so a star with perfectly reliable spokes costs only
    ``2^(n_sites + 1)`` states rather than ``2^(2n + 1)``."""
    free_sites = np.nonzero((site_rel > 0.0) & (site_rel < 1.0))[0]
    free_links = np.nonzero((link_rel > 0.0) & (link_rel < 1.0))[0]
    n_free = free_sites.size + free_links.size
    if n_free > MAX_COMPONENTS:
        raise DensityError(
            f"enumeration over {n_free} fallible components exceeds the "
            f"{MAX_COMPONENTS}-component safety cap; use montecarlo_density "
            "for larger networks"
        )
    return free_sites, free_links


def enumerate_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
) -> np.ndarray:
    """Exact density matrix ``(n_sites, T+1)`` by full state enumeration.

    Deterministic: the same inputs give the same bytes. Cached by
    topology content and quantized reliabilities.
    """
    site_rel = reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = reliability_vector(r, topology.n_links, "link reliability")
    free_sites, free_links = _free_components(site_rel, link_rel)

    from repro.analytic import cache as density_cache

    return density_cache.fetch(
        "enumeration",
        density_cache.enumeration_key(topology, site_rel, link_rel),
        lambda: _collapse_dfs_kernel(
            topology, site_rel, link_rel, free_sites, free_links),
    )


def _label_dtype(n_sites: int):
    """Smallest unsigned dtype whose max value can serve as the sentinel."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_sites < np.iinfo(dtype).max:
            return dtype
    return np.uint64


def _collapse_dfs_kernel(
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    free_sites: np.ndarray,
    free_links: np.ndarray,
) -> np.ndarray:
    """Exact density matrix by subset-doubling DFS with branch collapse.

    Components are consumed in column order: free sites first (each
    doubles the rows with probability factors ``1-p`` / ``p``), then
    links pinned fully up (merged in place, no branch), then free links.
    A free link only doubles the rows where both endpoints are live and
    in *distinct* components — everywhere else its up/down marginal is
    exactly 1 and the branch collapses. Leaf rows are flushed into the
    density bins: :func:`entry_vote_totals` gives each row's per-site
    component vote totals in integers, then one ``bincount`` adds the
    row probabilities into the ``(site, total)`` bins in row order.

    Peak live rows are capped at ``max(ROW_CAP, MIN_ROW_CAP)``; the live
    block grows in place in one buffer of that many rows, and a branch
    that would exceed the cap defers half its rows to an explicit DFS
    stack. Row order, split points and flush boundaries fix the
    accumulation order, so results are deterministic for a fixed cap
    (pinned in ``tests/analytic/test_enumeration.py``) and agree with a
    per-state loop to float round-off (regrouped accumulation — the
    ≤1e-12 differential tier, not bitwise).
    """
    recorder = _current_recorder()
    cap = max(int(ROW_CAP), MIN_ROW_CAP)

    n = topology.n_sites
    T = topology.total_votes
    u, v = topology.link_endpoint_arrays()
    dtype = _label_dtype(n)
    sent = dtype(np.iinfo(dtype).max)
    votes = topology.votes

    pinned_live_links = np.nonzero(link_rel >= 1.0)[0]

    # Column order: sites, pinned live links, free links. Pinned-dead
    # links (r <= 0) never join anything and are simply absent.
    cols = (
        [("site", int(s)) for s in free_sites]
        + [("plink", int(e)) for e in pinned_live_links]
        + [("link", int(e)) for e in free_links]
    )
    n_cols = len(cols)

    root = np.arange(n, dtype=dtype)[None, :].copy()
    root[0, site_rel <= 0.0] = sent
    acc = np.zeros(n * (T + 1), dtype=np.float64)
    # Labels are site ids, so row k's components are ids k*n .. k*n+n-1.
    row_ids = (np.arange(cap, dtype=np.int64) * n)[:, None]
    site_bins = np.arange(n, dtype=np.int64) * (T + 1)

    def flush(L: np.ndarray, P: np.ndarray) -> None:
        nonlocal acc
        rows = L.shape[0]
        bins = entry_vote_totals(row_ids[:rows] + L, L != sent, votes, rows * n)
        bins += site_bins
        acc += np.bincount(bins.ravel(), weights=np.repeat(P, n),
                           minlength=n * (T + 1))

    # The live block is rows [0, rows) of one row buffer: a column writes
    # its doubled or merged rows after them, in the order a concatenation
    # of (kept rows, new rows) would have.
    Lbuf = np.empty((cap, n), dtype=dtype)
    Pbuf = np.empty(cap, dtype=np.float64)
    stack = [(root, np.ones(1, dtype=np.float64), 0)]
    while stack:
        L0, P0, c = stack.pop()
        rows = L0.shape[0]
        Lbuf[:rows] = L0
        Pbuf[:rows] = P0
        with recorder.phase("enum.branch"):
            while c < n_cols:
                kind, comp = cols[c]
                L, P = Lbuf[:rows], Pbuf[:rows]
                if kind == "site":
                    if 2 * rows > cap and rows > 1:
                        half = rows // 2
                        stack.append((L[half:].copy(), P[half:].copy(), c))
                        rows = half
                        continue
                    # Down copies first, then the up rows: [down, L].
                    p_up = site_rel[comp]
                    Lbuf[rows:2 * rows] = L
                    np.multiply(P, p_up, out=Pbuf[rows:2 * rows])
                    L[:, comp] = sent
                    P *= 1.0 - p_up
                    rows *= 2
                else:
                    a, b = int(u[comp]), int(v[comp])
                    la = L[:, a]
                    lb = L[:, b]
                    joins = (la != sent) & (lb != sent) & (la != lb)
                    if kind == "plink":
                        if joins.any():
                            lo = np.minimum(la, lb)
                            hi = np.maximum(la, lb)
                            merge = joins[:, None] & (L == hi[:, None])
                            np.copyto(L, lo[:, None], where=merge)
                    else:
                        idx = np.nonzero(joins)[0]
                        n_joins = idx.size
                        if n_joins == 0:
                            # Dead or redundant everywhere: the marginal
                            # r + (1 - r) is exactly 1 — collapse.
                            c += 1
                            continue
                        if rows + n_joins > cap and rows > 1:
                            half = rows // 2
                            stack.append((L[half:].copy(), P[half:].copy(), c))
                            rows = half
                            continue
                        # Kept rows, then the merged copies: [L, merged].
                        r_up = link_rel[comp]
                        lo = np.minimum(la, lb)[idx]
                        hi = np.maximum(la, lb)[idx]
                        merged = Lbuf[rows:rows + n_joins]
                        merged[...] = L[idx]
                        np.copyto(merged, lo[:, None], where=merged == hi[:, None])
                        np.multiply(P[idx], r_up, out=Pbuf[rows:rows + n_joins])
                        P[idx] *= 1.0 - r_up
                        rows += n_joins
                c += 1
        with recorder.phase("enum.flush"):
            flush(Lbuf[:rows], Pbuf[:rows])

    return acc.reshape(n, T + 1)


def enumerate_density(
    topology: Topology,
    site: int,
    p: Reliability,
    r: Reliability,
) -> np.ndarray:
    """Exact ``f_site(v)`` for one site (length ``T + 1``): that site's
    row of :func:`enumerate_density_matrix`, bitwise."""
    if not 0 <= site < topology.n_sites:
        raise TopologyError(f"unknown site {site}")
    return enumerate_density_matrix(topology, p, r)[site].copy()

"""Exact component-vote densities by exhaustive state enumeration.

The paper proves that computing ``f_i`` in a general network is
#P-complete, so no polynomial algorithm is expected. For *small* networks,
though, we can enumerate all ``2^(n_sites + n_links)`` up/down states,
weight each by its probability, and accumulate the exact density. This
module is the library's ground-truth oracle: the closed forms
(:mod:`repro.analytic.ring`, :mod:`~repro.analytic.complete`,
:mod:`~repro.analytic.bus`), the Monte-Carlo estimator, and the simulator's
stationary behaviour are all validated against it in the test suite.

Component reliabilities may be uniform (scalars ``p``, ``r``) or per
component (arrays), which is how the star-with-perfect-spokes encoding of
the bus network is enumerated exactly.

Two kernels compute the same matrix (DESIGN.md §15), selected with the
``backend=`` kwarg:

``collapse-dfs`` (the default, and what every caller without a reason
to ask otherwise runs)
    a subset-doubling DFS over the fallible components that only
    branches on a link where it actually joins two distinct live
    components — everywhere else the link's marginal is exactly
    ``r + (1 - r) = 1`` and both branches collapse into one. Ring-like
    topologies collapse from ``2^28`` states to under a million leaf
    rows. Accumulation is regrouped, so results equal the per-state loop
    to float round-off (≤1e-12), not bitwise. Cap: :data:`MAX_COMPONENTS`
    (2^28 states).

``exact-order`` (the witness)
    generates up/down states in chunks of bit-unpacked numpy masks,
    computes state probabilities as column-wise product reductions,
    labels every state of a chunk with one block-diagonal
    ``connected_components`` call
    (:func:`~repro.connectivity.components.batched_vote_totals`), and
    accumulates probabilities with an ordered unbuffered scatter-add.
    Every floating-point operation is sequenced exactly like a per-state
    ``itertools.product`` loop (the oracle in ``tests/oracles.py``), so
    the output is **bitwise identical** to it for every ``chunk_size``.
    The golden corpus's sharded entries and ``repro verify``'s
    ``enumeration|enum-exact-order`` pair are computed through it. Cap:
    :data:`MAX_COMPONENTS_EXACT_ORDER` (2^24 states).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.connectivity.components import batched_vote_totals, entry_vote_totals
from repro.errors import DensityError, TopologyError
from repro.telemetry.recorder import current as _current_recorder
from repro.topology.model import Topology

__all__ = [
    "BACKENDS",
    "BACKEND_CAPS",
    "enumerate_density",
    "enumerate_density_matrix",
    "resolve_backend",
]

#: Refuse to enumerate beyond this many fallible components (2^28
#: states; the DFS is memory-bounded by its row cap, see DESIGN.md §15).
MAX_COMPONENTS = 28

#: The witness materializes every state: 2^24 is already minutes.
MAX_COMPONENTS_EXACT_ORDER = 24

#: Fallible-component cap of each kernel.
BACKEND_CAPS = {
    "collapse-dfs": MAX_COMPONENTS,
    "exact-order": MAX_COMPONENTS_EXACT_ORDER,
}

#: The production kernel, then its exact-floating-point-order witness.
BACKENDS = tuple(BACKEND_CAPS)

#: ``exact-order``: states unpacked and labelled per chunk. Large enough
#: that the per-chunk numpy fixed costs amortize, small enough that the
#: chunk's mask/label arrays stay cache- and memory-friendly at 2^24
#: states. ``collapse-dfs``: the cap on live partial-state rows.
DEFAULT_CHUNK_SIZE = 8_192

#: Row caps below this are clamped up; the DFS needs headroom to double.
MIN_ROW_CAP = 64

Reliability = Union[float, Sequence[float], np.ndarray]


def _as_reliability_vector(value: Reliability, count: int, label: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise DensityError(f"{label} must be scalar or length {count}, got shape {arr.shape}")
    if ((arr < 0.0) | (arr > 1.0)).any():
        raise DensityError(f"{label} values must be in [0, 1]")
    return arr


def resolve_backend(backend: Optional[str] = None) -> str:
    """Validate a backend name; ``None`` names the production kernel.

    The default is a constant: nothing outside the call (process
    settings, what is installed) changes which kernel runs.
    """
    if backend is None:
        return BACKENDS[0]
    if backend not in BACKENDS:
        raise DensityError(
            f"unknown enumeration backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


def _free_components(
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    backend: str,
) -> tuple:
    """Indices of fallible sites/links; components pinned at 0/1 are not
    enumerated, so a star with perfectly reliable spokes costs only
    ``2^(n_sites + 1)`` states rather than ``2^(2n + 1)``."""
    free_sites = np.nonzero((site_rel > 0.0) & (site_rel < 1.0))[0]
    free_links = np.nonzero((link_rel > 0.0) & (link_rel < 1.0))[0]
    n_free = free_sites.size + free_links.size
    cap = BACKEND_CAPS[backend]
    if n_free > cap:
        if n_free <= MAX_COMPONENTS:
            hint = (
                f"; the default {BACKENDS[0]!r} backend enumerates up to "
                f"{MAX_COMPONENTS}"
            )
        else:
            hint = "; use montecarlo_density for larger networks"
        raise DensityError(
            f"enumeration over {n_free} fallible components exceeds the "
            f"{cap}-component safety cap of the {backend!r} backend{hint}"
        )
    return free_sites, free_links, n_free


def enumerate_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    site: Optional[int] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Exact density matrix ``(n_sites, T+1)`` by full state enumeration.

    ``backend`` picks the kernel (see the module docstring; ``None`` is
    ``collapse-dfs``). ``exact-order`` is bitwise identical to a
    per-state loop for every ``chunk_size``; ``collapse-dfs`` regroups
    the accumulation and agrees to float round-off (the two are cached
    under separate numerics tags so a bitwise caller never receives a
    regrouped entry). With ``site`` given, only that site's row (length
    ``T+1``) is returned — the single-row fast path behind
    :func:`enumerate_density`.
    """
    if chunk_size <= 0:
        raise DensityError(f"chunk_size must be positive, got {chunk_size}")
    backend = resolve_backend(backend)
    site_rel = _as_reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = _as_reliability_vector(r, topology.n_links, "link reliability")
    free_sites, free_links, n_free = _free_components(site_rel, link_rel, backend)

    from repro.analytic import cache as density_cache

    exact_order = backend == "exact-order"
    kernel = _exact_order_kernel if exact_order else _collapse_dfs_kernel
    key = density_cache.enumeration_key(
        topology, site_rel, link_rel, site,
        numerics="exact-order" if exact_order else "regrouped",
    )
    return density_cache.fetch(
        "enumeration",
        key,
        lambda: kernel(
            topology, site_rel, link_rel, free_sites, free_links, n_free,
            chunk_size=chunk_size, site=site,
        ),
    )


def _exact_order_kernel(
    topology: Topology,
    site_rel: np.ndarray,
    link_rel: np.ndarray,
    free_sites: np.ndarray,
    free_links: np.ndarray,
    n_free: int,
    *,
    chunk_size: int,
    site: Optional[int],
) -> np.ndarray:
    # Phase attribution resolves through the current recorder (the
    # kernel has no telemetry argument); with the NULL recorder every
    # phase block is a shared no-op.
    recorder = _current_recorder()

    n = topology.n_sites
    T = topology.total_votes
    if site is None:
        out = np.zeros(n * (T + 1), dtype=np.float64)
        row_offsets = np.arange(n, dtype=np.int64) * (T + 1)
    else:
        out = np.zeros(T + 1, dtype=np.float64)

    base_site_up = site_rel >= 1.0
    base_link_up = link_rel >= 1.0

    n_states = 1 << n_free
    # Bit j (j = 0 slowest-varying) of state k mirrors the reference
    # loop's ``product((False, True), repeat=n_free)`` enumeration order;
    # matching the order makes the scatter-add accumulation sequence —
    # and therefore the floating-point result — identical.
    shifts = np.arange(n_free - 1, -1, -1, dtype=np.int64)

    for start in range(0, n_states, chunk_size):
        stop = min(start + chunk_size, n_states)
        with recorder.phase("enum.unpack"):
            idx = np.arange(start, stop, dtype=np.int64)
            bits = ((idx[:, None] >> shifts) & 1).astype(bool)
            count = idx.shape[0]

            site_masks = np.broadcast_to(base_site_up, (count, n)).copy()
            link_masks = np.broadcast_to(
                base_link_up, (count, topology.n_links)).copy()
            site_masks[:, free_sites] = bits[:, : free_sites.size]
            link_masks[:, free_links] = bits[:, free_sites.size:]

        # One factor per fallible component, multiplied column-by-column
        # in the same order the reference loop multiplies scalars.
        with recorder.phase("enum.probs"):
            probs = np.ones(count, dtype=np.float64)
            for col, comp in enumerate(free_sites):
                rel = site_rel[comp]
                probs *= np.where(bits[:, col], rel, 1.0 - rel)
            for col, comp in enumerate(free_links):
                rel = link_rel[comp]
                probs *= np.where(
                    bits[:, free_sites.size + col], rel, 1.0 - rel)

        with recorder.phase("enum.label"):
            totals = batched_vote_totals(topology, site_masks, link_masks)
        with recorder.phase("enum.accumulate"):
            if site is None:
                # State-major flat bins reproduce the reference's
                # per-state ``matrix[arange(n), totals] += prob``
                # accumulation order; np.add.at applies the additions
                # unbuffered, in order.
                flat = (row_offsets[None, :] + totals).ravel()
                np.add.at(out, flat, np.repeat(probs, n))
            else:
                np.add.at(out, totals[:, site], probs)

    return out.reshape(n, T + 1) if site is None else out


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
    n_free: int,
    *,
    chunk_size: int,
    site: Optional[int],
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

    Peak live rows are capped at ``max(chunk_size, MIN_ROW_CAP)``; the
    live block grows in place in one buffer of that many rows, and a
    branch that would exceed the cap defers half its rows to an explicit
    DFS stack. Row order, split points and flush boundaries fix the
    accumulation order, so results are deterministic for a fixed cap
    (pinned in ``tests/analytic/test_enumeration.py``) and agree with the
    ``exact-order`` kernel to float round-off (regrouped accumulation —
    the ≤1e-12 differential tier, not bitwise).
    """
    recorder = _current_recorder()
    cap = max(int(chunk_size), MIN_ROW_CAP)

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

    matrix = acc.reshape(n, T + 1)
    return matrix if site is None else matrix[int(site)].copy()


def enumerate_density(
    topology: Topology,
    site: int,
    p: Reliability,
    r: Reliability,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Exact ``f_site(v)`` for one site (length ``T + 1``).

    Accumulates the single requested row inside the kernel instead of
    materializing the full ``(n_sites, T+1)`` matrix; the row is bitwise
    identical to ``enumerate_density_matrix(...)[site]``.
    """
    if not 0 <= site < topology.n_sites:
        raise TopologyError(f"unknown site {site}")
    return enumerate_density_matrix(topology, p, r, site=site, backend=backend)

"""Component computation over a partially-failed topology.

The central quantity (paper, section 4): given which sites and links are
currently up, each up site belongs to a *component* — the set of up sites
reachable from it over up links — and what matters to the quorum consensus
protocol is the **total votes inside that component**. Down sites are
treated as belonging to a component with zero votes, so the availability
accounting naturally counts accesses submitted to down sites as denials
(the ACC metric).

Two labellers honour one label contract; the tests hold each against an
independent min-propagation labeller (``tests/oracles.py``). Both build
their graphs with one bitmask builder, :func:`_adjacency_rows`, which
packs the live graphs of B states into one Python-int adjacency bitmask
per site. One state is labelled by a flood (:func:`component_labels`):
:func:`_live_masks` is the builder's ``B = 1`` case and :func:`_flood`
floods it from the lowest unreached up site, the masks and search that
:class:`~repro.connectivity.dynamic.ComponentTracker` keeps for its
incremental updates. :func:`_label_runs` lays B states side by side and
labels them in one call. Its nodes are *runs*: maximal ranges of
consecutive site ids joined by usable path links ``(i, i + 1)``, found
with one mask, so a 101-site ring at p = r = 0.96 has about 12 nodes per
state instead of 101. Every other link is a *chord*, and a usable chord
between two runs is an edge. How a topology's block is labelled is
decided from the topology alone. A contracted block
(:data:`CONTRACT_PATH_SHARE`) is labelled by a numpy union over its
chord edges (:func:`_union_runs`); otherwise every site is its own run,
and the block is either flooded a state at a time when the graph is
dense (:data:`FLOOD_LINK_SHARE`, the complete graph:
:func:`_flood_block`) or labelled by the same union over the plain site
graph. All three number components by their lowest node, and a
component's lowest run starts at its lowest site, so the labels are
those of a one-node-per-site graph bit for bit. Blocks of sampled,
enumerated or simulated states come back as labels, vote totals
(:func:`batched_vote_totals`) or — the one road from sampled states to a
density — :func:`batched_vote_histogram` (DESIGN.md §10),
which labels in :func:`sub_blocks` of at most :data:`SLOT_BUDGET` link
slots, bins whole runs into one integer difference array and sums over
sites once, so its memory is bounded whatever the block size. Both sum
each component's run votes in integers (:func:`_run_totals`); the
enumeration's flush bins per-site totals from :func:`entry_vote_totals`.
Nothing here imports scipy (DESIGN.md §5.6).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.model import Topology

__all__ = [
    "component_labels",
    "batched_component_labels",
    "batched_vote_totals",
    "batched_vote_histogram",
    "sub_blocks",
    "VoteHistogram",
    "entry_vote_totals",
    "component_vote_totals",
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


#: Least share of a topology's links that are path links ``(i, i + 1)``
#: for the block labeller to contract runs of the path (:func:`_label_runs`).
#: Histogram of 256-state blocks of a 101-site ring plus chords at p = r =
#: 0.96, µs per state, contracted / site-graph union / flood (median of 15
#: rounds, routes interleaved, 2-core x86-64): share .86 (117 links) 4 / 14
#: / 72-80, .28 (357) 11 / 21-22 / 79-87, .16 (613) 19-20 / 28-30 / 74-80,
#: .09 (1 125) 34-36 / 44-46 / 74-76, .06 (1 637) 46-47 / 58-60 / 73-74,
#: .05 (2 149) 57-60 / 65-73 / 72-78, .04 (2 661) 56-75 / 68-89 / 61-91,
#: .03 (3 173) 76-78 / 92 / 71, .02 (complete-101) 132-134 / 135-139 /
#: 95-96. Contracting wins down to about .04: topology 256 (.28), the
#: densest-chorded paper topology that contracts, takes 11 against 79-87
#: flooded, and the complete graph floods. The constant stays at .1, above
#: that crossover, because it also decides which topologies the simulator
#: labels in chunks (``engine.labels_in_chunks``, whose link limit was
#: measured on contracted topologies only); between .04 and .1 the
#: site-graph union costs 1.1-1.3x the contraction.
CONTRACT_PATH_SHARE = 0.1

#: Least share of the ``n (n - 1) / 2`` site pairs that are links for the
#: block labeller to flood an uncontracted block (:func:`_flood_block`)
#: instead of taking the union over its site graph: the measured crossover.
#: Same blocks as above, uncontracted, union / flood µs per state: pair
#: share .22 44-46 / 74-76, .32 58-60 / 73-74, .43 65-73 / 72-78, .53
#: 68-89 / 61-91, .63 92 / 71, .83 110-125 / 79-93, 1.0 135-139 / 95-96.
#: The flood's cost is nearly flat in the links (its bit matrix is
#: ``n x W`` bits whatever they are), the union's grows with them.
FLOOD_LINK_SHARE = 0.5

#: Most link slots (``B * n_links``) one labelling call of
#: :func:`batched_vote_histogram` (and of the Monte-Carlo draw that feeds
#: it) holds. A call's transient arrays, traced per link slot at the
#: budget: the flood 5.4 bytes on complete-101 (its ``(B, n, W)`` bit
#: matrix is 2.6 of them, the packed words and Python-int rows most of
#: the rest), the contracted union 13 on topology 16 and 33 on topology
#: 256 (its run ids, chord masks and the union's index arrays), and the
#: union over a site graph 38-46. A 256-state block of the complete graph
#: (1.29 M slots) took 32.5 MiB as one call when csgraph labelled it and
#: takes 11 calls of 23-24 states. The budget is at least 2**17 so that a
#: 1 024-state block of topology 16 (119 808 slots) is still one call:
#: every sparse paper topology labels a block in one call.
SLOT_BUDGET = 2**17


def component_labels(
    topology: Topology,
    site_up: np.ndarray,
    link_up: np.ndarray,
) -> np.ndarray:
    """Label each site with its component id.

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
        component ids starting at 0, in the order of each component's
        lowest site; down sites get :data:`DOWN_LABEL`. Component ids are
        consistent within one call but carry no meaning across calls.
    """
    site_up = np.asarray(site_up, dtype=bool)
    link_up = np.asarray(link_up, dtype=bool)
    _validate_masks(topology, site_up, link_up)
    return _flood(*_live_masks(topology, site_up, link_up))[0]


def _live_masks(
    topology: Topology, site_up: np.ndarray, link_up: np.ndarray
) -> Tuple[List[int], int]:
    """The live graph as Python-int bitmasks: bit ``j`` of ``adj[i]`` is set
    iff an *up* link joins ``i`` and ``j`` (whatever the sites' state), and
    bit ``i`` of ``up`` iff site ``i`` is up: the ``B = 1`` block of
    :func:`_adjacency_rows`, unmasked, and the up sites packed alone.
    """
    up = np.packbits(site_up, bitorder="little").tobytes()
    return _adjacency_rows(topology, link_up[None]), int.from_bytes(up, "little")


def _adjacency_rows(
    topology: Topology, link_masks: np.ndarray,
    site_masks: Optional[np.ndarray] = None,
) -> List[int]:
    """The live graphs of B states as ``B * n`` Python-int bitmasks.

    Bit ``j`` of row ``k * n + i`` is set iff state ``k`` has an up link
    joining ``i`` and ``j``; given ``site_masks``, only if both sites are
    up as well. Each state is one ``(n, W)`` bit matrix, ``W`` being
    ``n`` rounded up to a 64-bit word: the link masks are written
    through the topology's flat indices ``u * W + v`` and ``v * W + u``
    (:class:`_RunLayout`), a down site's row and column are cleared, and
    one ``packbits`` packs the block into little-endian words, which are
    then joined into one int per row, a word column at a time.
    """
    layout = _run_layout(topology)
    B, n, width = link_masks.shape[0], topology.n_sites, layout.width
    bits = np.zeros((B, n * width), dtype=bool)
    bits[:, layout.bit_uv] = link_masks
    bits[:, layout.bit_vu] = link_masks
    bits = bits.reshape(B, n, width)
    if site_masks is not None:
        bits &= site_masks[:, :, None]
        bits[:, :, :n] &= site_masks[:, None, :]
    words = np.packbits(bits, axis=2, bitorder="little").view("<u8")
    columns = words.reshape(B * n, -1).T.tolist()
    rows = columns.pop()
    while columns:
        rows = [high << 64 | low for high, low in zip(rows, columns.pop())]
    return rows


def _flood(adj: List[int], up: int) -> Tuple[np.ndarray, int]:
    """Components of the up sites of the live graph ``adj`` / ``up``
    (:func:`_live_masks`): ``(labels, n_components)``.

    Each component is flooded from the lowest up site not yet reached, a
    frontier at a time: the rows of the frontier's sites are OR-ed, and
    the sites of that union not reached before are the next frontier. So
    components are numbered in the order of their lowest sites, the label
    contract of :func:`component_labels`.
    """
    labels = [DOWN_LABEL] * len(adj)
    unseen, k = up, 0
    while unseen:
        frontier = unseen & -unseen
        unseen ^= frontier
        while frontier:
            reached = 0
            while frontier:
                site = frontier.bit_length() - 1
                labels[site] = k
                reached |= adj[site]
                frontier ^= 1 << site
            frontier = reached & unseen
            unseen ^= frontier
        k += 1
    return np.array(labels, dtype=np.int64), k


def _validated_masks(
    topology: Topology, site_masks: np.ndarray, link_masks: np.ndarray
) -> tuple:
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
    return site_masks, link_masks


class _RunLayout(NamedTuple):
    """What the labellers need of a topology, built once per topology.

    ``path_*`` are the path links ``(i, i + 1)`` the block labeller
    contracts (empty when :data:`CONTRACT_PATH_SHARE` says no);
    ``chords`` are the other links, ``None`` standing for every link in
    id order, with their int32 endpoints. ``flood`` says whether an
    uncontracted block is flooded (:data:`FLOOD_LINK_SHARE`).
    ``bit_uv`` / ``bit_vu`` are every link's flat positions ``u * W + v``
    and ``v * W + u`` in a state's ``(n, W)`` bit matrix
    (:func:`_adjacency_rows`), ``W`` (``width``) being ``n`` rounded up
    to a 64-bit word.
    """

    path: Optional[np.ndarray]
    path_u: np.ndarray
    path_v: np.ndarray
    chords: Optional[np.ndarray]
    chord_u: np.ndarray
    chord_v: np.ndarray
    flood: bool
    width: int
    bit_uv: np.ndarray
    bit_vu: np.ndarray


def _run_layout(topology: Topology) -> _RunLayout:
    cached = getattr(topology, "_run_layout", None)
    if cached is not None:
        return cached
    n = topology.n_sites
    u, v = topology.link_endpoint_arrays()
    on_path = v == u + 1
    n_path = int(on_path.sum())
    flood = False
    if n_path and n_path >= CONTRACT_PATH_SHARE * u.shape[0]:
        path, chords = np.flatnonzero(on_path), np.flatnonzero(~on_path)
        path_u = u[path].astype(np.int32)
        chord_u, chord_v = u[chords].astype(np.int32), v[chords].astype(np.int32)
    else:
        path = chords = None
        path_u = np.empty(0, dtype=np.int32)
        chord_u, chord_v = u.astype(np.int32), v.astype(np.int32)
        flood = u.shape[0] >= FLOOD_LINK_SHARE * (n * (n - 1) // 2)
    width = -(-n // 64) * 64
    bit_uv, bit_vu = u * width, v * width
    bit_uv += v
    bit_vu += u
    layout = _RunLayout(path, path_u, path_u + 1, chords, chord_u, chord_v,
                        flood, width, bit_uv, bit_vu)
    topology._run_layout = layout
    return layout


def contracts_path(topology: Topology) -> bool:
    """Whether :func:`_label_runs` contracts ``topology``'s path into runs."""
    return _run_layout(topology).path is not None


def _label_runs(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> tuple:
    """Components of the runs of B states in one call.

    A *run* is a maximal range of consecutive site ids of one state whose
    path links ``(i, i + 1)`` are usable: a down site is a run of its own.
    One mask marks each run's first site, ``flatnonzero`` lists them in
    block order and ``repeat`` gives every site its run, so runs are
    numbered by their first sites. Every other link is a *chord*; a
    usable chord joins the runs of its two ends, and :func:`_union_runs`
    labels the runs from those edges.

    On a topology whose links are mostly chords the contraction costs
    more than it saves (:data:`CONTRACT_PATH_SHARE`): every site is then
    its own run. A dense one (:data:`FLOOD_LINK_SHARE`, the complete
    graph) is flooded a state at a time (:func:`_flood_block`); on any
    other the union takes one node per site and its usable links as
    edges.

    Returns ``(n_components, comp, starts)``: ``comp[r]`` (int32) is run
    ``r``'s component and ``starts[r]`` its first entry ``k * n + s``.
    Components are numbered in the order of their lowest node; a
    component's lowest run starts at its lowest site, so ``comp`` numbers
    components exactly as a graph of one node per site would.
    """
    layout = _run_layout(topology)
    B, n = site_masks.shape
    if max(B * n, B * topology.n_links) >= 2**31:
        raise TopologyError(
            f"a block of {B} states of {topology.name} exceeds int32 indices"
        )
    if layout.flood:
        return (*_flood_block(topology, site_masks, link_masks), np.arange(B * n))
    cu, cv = layout.chord_u, layout.chord_v
    if layout.path is None:
        starts = np.arange(B * n)
        run = np.arange(B * n, dtype=np.int32).reshape(B, n)
        usable = link_masks & site_masks[:, cu] & site_masks[:, cv]
    else:
        pu, pv = layout.path_u, layout.path_v
        start = np.ones((B, n), dtype=bool)
        start[:, pv] = ~(link_masks[:, layout.path] & site_masks[:, pu]
                         & site_masks[:, pv])
        starts = np.flatnonzero(start)
        run = np.repeat(np.arange(starts.shape[0], dtype=np.int32),
                        np.diff(starts, append=B * n)).reshape(B, n)
        usable = link_masks[:, layout.chords] & site_masks[:, cu] & site_masks[:, cv]
    n_comp, comp = _union_runs(starts.shape[0], run[:, cu][usable],
                               run[:, cv][usable])
    return n_comp, comp, starts


def _flood_block(topology: Topology, site_masks: np.ndarray,
                 link_masks: np.ndarray) -> Tuple[int, np.ndarray]:
    """``(n_components, comp)`` of the ``B * n`` sites of B states, flooded.

    Each state's live graph, down sites' rows and columns cleared
    (:func:`_adjacency_rows`), is flooded (:func:`_flood`) with every
    site seeded, so a down site is a component of its own. A state's
    components are numbered by their lowest sites and offset by the
    components of the states before it: lowest node first over the
    block, as :func:`_union_runs` numbers them.
    """
    B, n = site_masks.shape
    rows = _adjacency_rows(topology, link_masks, site_masks)
    every = (1 << n) - 1
    comp = np.empty((B, n), dtype=np.int32)
    n_comp = 0
    for k in range(B):
        labels, count = _flood(rows[k * n:(k + 1) * n], every)
        comp[k] = labels + n_comp
        n_comp += count
    return n_comp, comp.ravel()


def _union_runs(n_runs: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """Components of ``n_runs`` nodes joined by the edges ``(a[i], b[i])``.

    Hook and jump: each edge's larger end is hooked to its smallest
    neighbour below it, then every node jumps to its root until none
    moves; each edge whose ends still have two roots hooks the larger
    root to the smaller, and the jumps repeat, until no edge is left
    between two roots. A node only ever points lower, so each
    component's root is its lowest node, and ranking the roots numbers
    components by their lowest node. Returns
    ``(n_components, comp)``, ``comp`` int32.

    The loops use operators and indexing only, no function calls: how
    many rounds they take depends on the graph, the calls a labelling
    makes on the code alone.
    """
    parent = np.arange(n_runs)
    lo, hi = np.minimum(a, b, dtype=np.intp), np.maximum(a, b, dtype=np.intp)
    np.minimum.at(parent, hi, lo)
    while True:
        while True:
            jumped = parent[parent]
            moved = jumped != parent
            if not moved[moved].shape[0]:
                break
            parent = jumped
        root_lo, root_hi = parent[lo], parent[hi]
        crossing = root_lo != root_hi
        root_lo, root_hi = root_lo[crossing], root_hi[crossing]
        if not root_lo.shape[0]:
            break
        # A root hooked twice keeps one of its smaller roots; any one will do.
        lo, hi = np.minimum(root_lo, root_hi), np.maximum(root_lo, root_hi)
        parent[hi] = lo
    rank = np.cumsum(parent == np.arange(n_runs), dtype=np.int32)
    rank -= 1
    return int(rank[-1]) + 1 if n_runs else 0, rank[parent]


def _batched_raw_labels(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> tuple:
    """Raw (uncompacted) labels of B states, site by site.

    Returns ``(n_components, raw)`` where ``raw`` has shape ``(B * n,)``:
    state ``k``'s site ``s`` is entry ``k * n + s`` and carries its run's
    component (:func:`_label_runs`). Ids are batch-global and number
    components by their lowest entry, and down sites carry their own
    singleton ids (no -1 marking) — callers mask with ``site_masks``
    themselves.
    """
    n_comp, comp, starts = _label_runs(topology, site_masks, link_masks)
    if comp.shape[0] < site_masks.size:  # some run holds more than one site
        comp = np.repeat(comp, np.diff(starts, append=site_masks.size))
    return n_comp, comp


def batched_component_labels(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> np.ndarray:
    """Label B network states with one block labelling call.

    Parameters
    ----------
    site_masks, link_masks:
        Boolean arrays of shape ``(B, n_sites)`` / ``(B, n_links)``.

    Returns
    -------
    numpy.ndarray
        int64 labels of shape ``(B, n_sites)``. Up sites carry component
        ids that are unique across the WHOLE batch (``0..K-1`` over all
        states in first-seen order, *not* compacted per state); down
        sites get :data:`DOWN_LABEL`.
    """
    site_masks, link_masks = _validated_masks(topology, site_masks, link_masks)
    n_comp, raw = _batched_raw_labels(topology, site_masks, link_masks)
    return _compact_labels(n_comp, raw, site_masks.ravel()).reshape(site_masks.shape)


def _compact_labels(n_comp: int, raw: np.ndarray, up: np.ndarray) -> np.ndarray:
    """int64 labels of the entries ``up`` marks from raw ids numbered by
    their lowest entry; the other entries get :data:`DOWN_LABEL`."""
    up_raw = raw[up]
    # Down sites received their own singleton raw ids, which we discard.
    # Raw ids ascend with each component's first node, so ranking the ids
    # that hold an up site compacts them in first-seen order, no sort.
    held = np.zeros(n_comp, dtype=bool)
    held[up_raw] = True
    labels = np.full(raw.shape[0], DOWN_LABEL, dtype=np.int64)
    labels[up] = (np.cumsum(held) - 1)[up_raw]
    return labels


def entry_vote_totals(
    ids: np.ndarray,
    up: np.ndarray,
    votes: np.ndarray,
    n_ids: int,
) -> np.ndarray:
    """Component vote total of every entry, in integers.

    ``ids`` (shape ``(B, n)``) names each entry's component among
    ``n_ids`` ids, ``up`` marks the entries that hold their column's
    ``votes`` (shape ``(n,)``). Down entries park in a discard bin
    ``n_ids`` that reads 0. One ``bincount`` sums each component's votes
    (an unweighted count when every vote is 1) and one gather spreads the
    sums back, so a down entry's total is 0 whatever its id was. The
    enumerated densities (both kernels) bin these totals. Sampled states
    bin whole runs instead (:class:`VoteHistogram`), and the vote search
    scores a vote vector from its sample's distinct component member sets
    (``quorum/vote_optimizer.py``).
    """
    ids = np.where(up, ids, np.intp(n_ids))  # bincount's index type
    if (votes == 1).all():
        sums = np.bincount(ids.ravel(), minlength=n_ids + 1)
    else:
        weights = np.broadcast_to(votes.astype(np.float64), ids.shape).ravel()
        sums = np.bincount(ids.ravel(), weights=weights, minlength=n_ids + 1)
        sums = sums.astype(np.int64)
    sums[n_ids] = 0
    return sums[ids]


def _validated_votes(topology: Topology, votes) -> np.ndarray:
    votes = np.asarray(votes)
    if votes.shape != (topology.n_sites,):
        raise TopologyError(
            f"votes must have shape ({topology.n_sites},), got {votes.shape}"
        )
    if not np.issubdtype(votes.dtype, np.integer) or (votes < 0).any():
        raise TopologyError(f"votes must be non-negative integers, got {votes}")
    return votes.astype(np.int64)


def batched_vote_totals(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
    votes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused masks → per-site component vote totals ``(B, n_sites)``.

    Equivalent to :func:`batched_component_labels` followed by a per-state
    :func:`component_vote_totals`, without labelling a site: each run's
    component total (:func:`_run_totals`) is repeated over the run's
    sites. ``votes`` overrides the topology's vote vector and must be
    ``n_sites`` non-negative integers.
    """
    site_masks, link_masks = _validated_masks(topology, site_masks, link_masks)
    votes = topology.votes if votes is None else _validated_votes(topology, votes)
    site_votes = np.zeros(topology.n_sites + 1, dtype=np.int64)
    np.cumsum(votes, out=site_votes[1:])
    totals, first, stop = _run_totals(
        site_votes, site_masks, *_label_runs(topology, site_masks, link_masks))
    stop -= first
    return np.repeat(totals, stop).reshape(site_masks.shape)


def _run_totals(site_votes: np.ndarray, site_masks: np.ndarray, n_comp: int,
                comp: np.ndarray, starts: np.ndarray) -> tuple:
    """``(totals, first, stop)`` of the runs :func:`_label_runs` found.

    A run spans sites ``[first, stop)`` of its state and its total is its
    component's vote total, in integers: ``site_votes[s]`` holds the votes
    of the sites below ``s``, a down site is a run of its own with no
    votes, and one ``bincount`` sums each component's runs.
    """
    first = starts % site_masks.shape[1]
    stop = np.diff(starts, append=site_masks.size)
    stop += first
    run_votes = site_votes[stop] - site_votes[first]
    run_votes *= site_masks.ravel()[starts]
    totals = np.bincount(comp, weights=run_votes, minlength=n_comp)[comp]
    return totals.astype(np.int64), first, stop


def sub_blocks(topology: Topology, n_states: int) -> List[slice]:
    """The fewest near-equal row ranges of ``n_states`` states that each
    hold at most :data:`SLOT_BUDGET` link slots (one state at least)."""
    rows = max(1, SLOT_BUDGET // max(1, topology.n_links))
    parts = max(1, -(-n_states // rows))
    cuts = [n_states * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


class VoteHistogram:
    """A running ``(n_sites, T+1)`` histogram of vote totals, one labelling
    call per :meth:`add`.

    The histogram bins whole runs (:func:`_label_runs`), not sites: a
    run's vote total is the sum of its component's run votes, and the run
    adds ``+1`` at ``(first site, total)`` and ``-1`` at ``(last site + 1,
    total)`` of one int64 difference array. :meth:`counts` takes the
    cumulative sum over sites once, so every site of the run is counted
    once, and the histogram of states labelled in sub-blocks is bitwise
    that of one call over all of them.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        n, self._width = topology.n_sites, topology.total_votes + 1
        self._site_votes = np.zeros(n + 1, dtype=np.int64)  # votes below site s
        np.cumsum(topology.votes, out=self._site_votes[1:])
        self._diff = np.zeros((n + 1) * self._width, dtype=np.int64)

    def add(self, site_masks: np.ndarray, link_masks: np.ndarray) -> None:
        """Label ``(B, n_sites)`` / ``(B, n_links)`` boolean masks in one
        call and count their sites' vote totals."""
        totals, first, stop = _run_totals(
            self._site_votes, site_masks,
            *_label_runs(self.topology, site_masks, link_masks))
        first *= self._width
        first += totals
        stop *= self._width
        stop += totals
        self._diff += np.bincount(first, minlength=self._diff.shape[0])
        self._diff -= np.bincount(stop, minlength=self._diff.shape[0])

    def counts(self) -> np.ndarray:
        """The counts so far, as a float64 ``(n_sites, T+1)`` matrix."""
        diff = self._diff.reshape(-1, self._width)[:-1]
        return np.cumsum(diff, axis=0).astype(np.float64)


def batched_vote_histogram(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
) -> np.ndarray:
    """Masks of B states → ``(n_sites, T+1)`` histogram of vote totals.

    ``counts[s, t]`` is the number of states in which site ``s``'s
    component holds ``t`` votes; a down site lands in bin 0. Every
    Monte-Carlo density estimator reaches its counts through a
    :class:`VoteHistogram`, this function included: it labels one
    :func:`sub_blocks` range per call, so the labelling's transient
    arrays are bounded by :data:`SLOT_BUDGET` whatever B is.
    """
    site_masks, link_masks = _validated_masks(topology, site_masks, link_masks)
    histogram = VoteHistogram(topology)
    for rows in sub_blocks(topology, site_masks.shape[0]):
        histogram.add(site_masks[rows], link_masks[rows])
    return histogram.counts()


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

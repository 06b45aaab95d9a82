"""Component computation over a partially-failed topology.

The central quantity (paper, section 4): given which sites and links are
currently up, each up site belongs to a *component* — the set of up sites
reachable from it over up links — and what matters to the quorum consensus
protocol is the **total votes inside that component**. Down sites are
treated as belonging to a component with zero votes, so the availability
accounting naturally counts accesses submitted to down sites as denials
(the ACC metric).

Two labellers honour one label contract; the tests hold each against an
independent min-propagation labeller (``tests/oracles.py``). One state is
labelled by a flood (:func:`component_labels`): :func:`_live_masks` packs
the live graph into one Python-int adjacency bitmask per site and
:func:`_flood` floods it from the lowest unreached up site, the masks and
search that :class:`~repro.connectivity.dynamic.ComponentTracker` keeps
for its incremental updates. :func:`_label_runs` lays B states side by
side and labels them in one call. Its nodes are *runs*: maximal ranges of
consecutive site ids joined by usable path links ``(i, i + 1)``, found
with one mask, so a 101-site ring at p = r = 0.96 has about 12 nodes per
state instead of 101. Every other link is a *chord*, and a usable chord
between two runs is an edge. Whether a topology's path is contracted is
decided from the topology alone (:data:`CONTRACT_PATH_SHARE`). A
contracted block is labelled by a numpy union over its chord edges
(:func:`_union_runs`); otherwise every site is its own run and one
scipy.sparse.csgraph call labels the plain site graph, the repo's only
``connected_components`` input. Both number components by their lowest
node, and a component's lowest run starts at its lowest site, so the
labels are those of a one-node-per-site graph bit for bit. Blocks of
sampled, enumerated or simulated states come back as labels, vote totals
(:func:`batched_vote_totals`) or — the one road from sampled states to a
density — :func:`batched_vote_histogram` (DESIGN.md §10),
which labels in :func:`sub_blocks` of at most :data:`SLOT_BUDGET` link
slots, bins whole runs into one integer difference array and sums over
sites once, so its memory is bounded whatever the block size. Both sum
each component's run votes in integers (:func:`_run_totals`); the
enumeration's flush bins per-site totals from :func:`entry_vote_totals`.
:func:`_label_runs` imports scipy only to label a site graph, so a
process that labels one state at a time (the simulator, whatever the
topology) or blocks of sparse networks (the chunked figures, a sparse
Monte-Carlo estimate) never loads it (DESIGN.md §5.6).
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
#: for the block labeller to contract runs of the path (:func:`_label_runs`):
#: the measured crossover. Histogram of 256-state blocks of a 101-site ring
#: plus chords at p = r = 0.96, contracted vs site graph (time ratio, best
#: of 5, 2-core x86-64): share .99 0.59, .85 0.61, .61 0.64, .28 0.64, .20
#: 0.80, .14 0.80-0.99, .11 0.81-0.85, .09 0.93-1.09, .05 1.07, .02
#: (complete-101) 1.04-1.08. The sparse paper topologies (.85 and up, .28
#: at 256 chords) contract; the complete graph does not.
CONTRACT_PATH_SHARE = 0.1

#: Most link slots (``B * n_links``) one labelling call of
#: :func:`batched_vote_histogram` (and of the Monte-Carlo draw that feeds
#: it) holds. A call holds about 10-18 bytes of transient arrays per link
#: slot (traced: the path and chord masks, the chord columns, on a site
#: graph csgraph's transpose of the slots; a contracted topology's union
#: holds only its usable chords, so topology 16 is the 10), so a 256-state
#: block of the 101-site complete graph (1.29 M slots) took 32.5 MiB as one
#: call on the site graph and takes 11 calls of 23-24 states instead. It is at
#: least 2**17 so that a 1 024-state block of topology 16 (119 808 slots)
#: is still one call: every sparse paper topology labels a block in one
#: call.
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
    bit ``i`` of ``up`` iff site ``i`` is up.

    The adjacency and the up row are one ``(n + 1)``-row bit matrix, packed
    in one call into little-endian 64-bit words; each row's words are then
    joined into one int, a word column at a time.
    """
    n = topology.n_sites
    u, v = topology.link_endpoint_arrays()
    u, v = u[link_up], v[link_up]
    bits = np.zeros((n + 1, -(-n // 64) * 64), dtype=bool)
    bits[u, v] = bits[v, u] = True
    bits[n, :n] = site_up
    columns = np.packbits(bits, axis=1, bitorder="little").view("<u8").T.tolist()
    masks = columns.pop()
    while columns:
        masks = [high << 64 | low for high, low in zip(masks, columns.pop())]
    return masks[:n], masks[n]


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
    """What the block labeller needs of a topology, built once per topology.

    ``path_*`` are the path links ``(i, i + 1)`` the labeller contracts
    (empty when :data:`CONTRACT_PATH_SHARE` says no); ``chords`` are the
    other links, ``None`` standing for every link in id order, with their
    int32 endpoints. ``chord_start[s]`` is the number of chords whose
    ``u`` is below ``s``: the slot of site ``s``'s first chord in a state.
    """

    path: Optional[np.ndarray]
    path_u: np.ndarray
    path_v: np.ndarray
    chords: Optional[np.ndarray]
    chord_u: np.ndarray
    chord_v: np.ndarray
    chord_start: np.ndarray


def _run_layout(topology: Topology) -> _RunLayout:
    cached = getattr(topology, "_run_layout", None)
    if cached is not None:
        return cached
    n = topology.n_sites
    u, v = topology.link_endpoint_arrays()
    on_path = v == u + 1
    n_path = int(on_path.sum())
    if n_path and n_path >= CONTRACT_PATH_SHARE * u.shape[0]:
        path, chords = np.flatnonzero(on_path), np.flatnonzero(~on_path)
        path_u = u[path].astype(np.int32)
        chord_u, chord_v = u[chords].astype(np.int32), v[chords].astype(np.int32)
    else:
        path = chords = None
        path_u = np.empty(0, dtype=np.int32)
        chord_u, chord_v = u.astype(np.int32), v.astype(np.int32)
    chord_start = np.zeros(n, dtype=np.int32)
    np.cumsum(np.bincount(chord_u, minlength=n)[:-1], out=chord_start[1:])
    layout = _RunLayout(path, path_u, path_u + 1, chords, chord_u, chord_v,
                        chord_start)
    topology._run_layout = layout
    return layout


def contracts_path(topology: Topology) -> bool:
    """Whether :func:`_label_runs` contracts ``topology``'s path into runs."""
    return _run_layout(topology).path is not None


def _label_runs(
    topology: Topology,
    site_masks: np.ndarray,
    link_masks: np.ndarray,
    data: Optional[np.ndarray] = None,
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
    its own run, and the block is one csgraph call on the plain site
    graph, the repo's one builder of a ``connected_components`` input.
    Each link owns one slot per state in the row of its ``u``-end, column
    its ``v``-end when usable, else the row itself (a self-loop, which
    joins nothing); link ids ascend by ``(u, v)``, so row ``k * n + s``
    starts at slot ``k * n_links + chord_start[s]`` and no sort is
    needed. ``float64`` data with ``int32`` indices is what csgraph
    validates to, so scipy converts nothing on the way in; csgraph reads
    only the pattern, so a caller labelling block after block may pass
    one array of ``B * n_links`` ones as ``data`` each time.

    Returns ``(n_components, comp, starts)``: ``comp[r]`` is run ``r``'s
    component and ``starts[r]`` its first entry ``k * n + s``. Components
    are numbered in the order of their lowest node; a component's lowest
    run starts at its lowest site, so ``comp`` numbers components exactly
    as a graph of one node per site would.
    """
    layout = _run_layout(topology)
    B, n = site_masks.shape
    if max(B * n, B * topology.n_links) >= 2**31:
        raise TopologyError(
            f"a block of {B} states of {topology.name} exceeds int32 indices"
        )
    cu, cv = layout.chord_u, layout.chord_v
    if layout.path is not None:
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

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_slots = B * cu.shape[0]
    usable = link_masks & site_masks[:, cu] & site_masks[:, cv]
    indices = np.where(usable, cv, cu)
    indices += (np.arange(B, dtype=np.int32) * n)[:, None]
    indptr = np.empty(B * n + 1, dtype=np.int32)
    np.add((np.arange(B, dtype=np.int32) * cu.shape[0])[:, None], layout.chord_start,
           out=indptr[:-1].reshape(B, n))
    indptr[-1] = n_slots
    graph = csr_matrix(
        (np.ones(n_slots) if data is None else data, indices.ravel(), indptr),
        shape=(B * n, B * n)
    )
    n_comp, comp = connected_components(graph, directed=False)
    return n_comp, comp, np.arange(B * n)


def _union_runs(n_runs: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """Components of ``n_runs`` nodes joined by the edges ``(a[i], b[i])``.

    Hook and jump: each edge's larger end is hooked to its smallest
    neighbour below it, then every node jumps to its root until none
    moves; each edge whose ends still have two roots hooks the larger
    root to the smaller, and the jumps repeat, until no edge is left
    between two roots. A node only ever points lower, so each
    component's root is its lowest node, and ranking the roots numbers
    components by their lowest node, as csgraph does. Returns
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
    """Label B network states with ONE compiled csgraph call.

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
    up = site_masks.ravel()
    up_raw = raw[up]
    # Down sites received their own singleton raw ids, which we discard.
    # Raw ids ascend with each component's first node, so ranking the ids
    # that hold an up site compacts them in first-seen order, no sort.
    held = np.zeros(n_comp, dtype=bool)
    held[up_raw] = True
    labels = np.full(raw.shape[0], DOWN_LABEL, dtype=np.int64)
    labels[up] = (np.cumsum(held) - 1)[up_raw]
    return labels.reshape(site_masks.shape)


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
    that of one call over all of them. The csgraph calls of an
    uncontracted topology share one array of ones, grown to the largest
    call, as their graph data: allocating 8 bytes per slot per sub-block
    instead cost a lone 1 000-state complete-101 estimate ~15 % of its CPU
    in page faults.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        n, self._width = topology.n_sites, topology.total_votes + 1
        self._site_votes = np.zeros(n + 1, dtype=np.int64)  # votes below site s
        np.cumsum(topology.votes, out=self._site_votes[1:])
        self._diff = np.zeros((n + 1) * self._width, dtype=np.int64)
        self._ones = np.ones(0)

    def add(self, site_masks: np.ndarray, link_masks: np.ndarray) -> None:
        """Label ``(B, n_sites)`` / ``(B, n_links)`` boolean masks in one
        call and count their sites' vote totals."""
        layout = _run_layout(self.topology)
        n_slots = site_masks.shape[0] * layout.chord_u.shape[0]
        if layout.path is None and self._ones.shape[0] < n_slots:
            self._ones = np.ones(n_slots)
        totals, first, stop = _run_totals(
            self._site_votes, site_masks,
            *_label_runs(self.topology, site_masks, link_masks, self._ones[:n_slots]))
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

"""Independent reference implementations the suite compares ``src/`` against.

Each of these is the slow, obviously-right way to do a job that ``src/``
does with one production path. The one fast exception is exact
enumeration's: :func:`enumerate_density_matrix_exact_order` vectorizes
the per-state loop without reordering a single floating-point operation,
so it is that loop's bits at 2^22 states. None has a caller outside the
tests.
"""

from itertools import combinations, product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.analytic.density import reliability_vector
from repro.connectivity.components import (
    DOWN_LABEL,
    batched_vote_totals,
    component_labels,
    component_vote_totals,
)
from repro.errors import TopologyError
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.assignment import QuorumAssignment


def minlabel_component_labels(topology, site_up, link_up):
    """Dependency-free labeller: iterated min-propagation + pointer jumping.

    Every up site starts labelled with its own index; each sweep pulls
    the minimum neighbouring label across every usable link and then
    pointer-jumps (``lab = lab[lab]``), so convergence takes
    ``O(log n_sites)`` sweeps with no sparse-matrix construction and no
    Python-level loop over edges. Honours the exact
    :func:`component_labels` contract — consecutive component ids from 0
    over up sites in first-seen order, :data:`DOWN_LABEL` for down sites
    — because a component's representative is its minimum site index,
    and scanning sites in ascending order first meets each component at
    that minimum. Shares no code with the bitmask flood or the block
    labeller, which is what makes it their witness.
    """
    site_up = np.asarray(site_up, dtype=bool)
    link_up = np.asarray(link_up, dtype=bool)

    n = topology.n_sites
    u, v = topology.link_endpoint_arrays()
    usable = link_up & site_up[u] & site_up[v]
    uu, vv = u[usable], v[usable]

    # lab[i] points at the smallest site index known reachable from i;
    # down sites park on the sentinel n (lab_ext[n] = n stays fixed).
    lab = np.arange(n + 1, dtype=np.int64)
    lab[:n][~site_up] = n
    while True:
        prev = lab.copy()
        if uu.size:
            np.minimum.at(lab, uu, lab[vv])
            np.minimum.at(lab, vv, lab[uu])
        lab[:n] = lab[lab[:n]]  # pointer jump
        if np.array_equal(lab, prev):
            break

    labels = np.full(n, DOWN_LABEL, dtype=np.int64)
    up_idx = np.nonzero(site_up)[0]
    # Roots are component-minimum site ids, so ascending root order is
    # exactly first-seen order over an ascending site scan.
    _, compact = np.unique(lab[up_idx], return_inverse=True)
    labels[up_idx] = compact
    return labels


def usable_links_raw_labels(topology, site_masks, link_masks):
    """Block-diagonal csgraph call over the usable links only.

    The oracle of ``components._batched_raw_labels``: the same
    ``(n_components, raw)`` contract, built from the ``flatnonzero`` of
    the ``(B, n_links)`` usable mask (an edge per usable link, so the
    graph's shape depends on the draw). csgraph numbers components by
    their lowest node, so the two agree bitwise on any graph they
    partition alike.
    """
    B, n = site_masks.shape
    u, v = topology.link_endpoint_arrays()
    n_nodes, n_links = B * n, u.shape[0]
    if max(n_nodes, B * n_links) >= 2**31:
        raise TopologyError(
            f"a block of {B} states of {topology.name} exceeds csgraph's int32 indices"
        )
    usable = link_masks & site_masks[:, u] & site_masks[:, v]
    flat = np.flatnonzero(usable)
    state = flat // max(n_links, 1)  # no links: nothing to divide
    link = flat - state * n_links
    state *= n
    rows = state + u[link]
    cols = (state + v[link]).astype(np.int32)
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    graph = csr_matrix(
        (np.ones(cols.shape[0]), cols, indptr), shape=(n_nodes, n_nodes)
    )
    return connected_components(graph, directed=False)


def enumerate_density_matrix_reference(topology, p, r):
    """Exact density matrix, one ``itertools.product`` state at a time.

    The oracle of the collapse-DFS (which regroups its sums and agrees
    to ≤1e-12) and of :func:`enumerate_density_matrix_exact_order`
    (bitwise). Components pinned at reliability 0 or 1 are not
    enumerated.
    """
    site_rel = np.broadcast_to(
        np.asarray(p, dtype=np.float64), (topology.n_sites,))
    link_rel = np.broadcast_to(
        np.asarray(r, dtype=np.float64), (topology.n_links,))
    free_sites = np.nonzero((site_rel > 0.0) & (site_rel < 1.0))[0]
    free_links = np.nonzero((link_rel > 0.0) & (link_rel < 1.0))[0]
    n_free = free_sites.size + free_links.size

    T = topology.total_votes
    matrix = np.zeros((topology.n_sites, T + 1), dtype=np.float64)

    site_up = site_rel >= 1.0
    link_up = link_rel >= 1.0

    for bits in product((False, True), repeat=n_free):
        site_bits = bits[: free_sites.size]
        link_bits = bits[free_sites.size:]
        site_up[free_sites] = site_bits
        link_up[free_links] = link_bits

        prob = 1.0
        for idx, up in zip(free_sites, site_bits):
            prob *= site_rel[idx] if up else 1.0 - site_rel[idx]
        for idx, up in zip(free_links, link_bits):
            prob *= link_rel[idx] if up else 1.0 - link_rel[idx]
        if prob == 0.0:
            continue

        labels = component_labels(topology, site_up, link_up)
        totals = component_vote_totals(labels, topology.votes)
        matrix[np.arange(topology.n_sites), totals] += prob

    return matrix


def enumerate_density_matrix_exact_order(topology, p, r, chunk_size=8_192):
    """The per-state loop's sums, computed a chunk of states at a time.

    The fast exact reference: states are bit-unpacked numpy masks in
    ``product((False, True), repeat=n_free)`` order, a state's
    probability is a column-wise product in the loop's factor order,
    every state of a chunk is labelled by one ``batched_vote_totals``
    call, and ``np.add.at`` adds the probabilities unbuffered, state by
    state. Every floating-point operation is sequenced as in
    :func:`enumerate_density_matrix_reference`, so the two are bitwise
    equal for every ``chunk_size``; this one reaches 2^22 states in
    seconds.
    """
    site_rel = reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = reliability_vector(r, topology.n_links, "link reliability")
    free_sites = np.nonzero((site_rel > 0.0) & (site_rel < 1.0))[0]
    free_links = np.nonzero((link_rel > 0.0) & (link_rel < 1.0))[0]
    n_free = free_sites.size + free_links.size

    n = topology.n_sites
    T = topology.total_votes
    out = np.zeros(n * (T + 1), dtype=np.float64)
    row_offsets = np.arange(n, dtype=np.int64) * (T + 1)
    base_site_up = site_rel >= 1.0
    base_link_up = link_rel >= 1.0

    # Bit j (j = 0 slowest-varying) of state k mirrors the reference
    # loop's enumeration order.
    shifts = np.arange(n_free - 1, -1, -1, dtype=np.int64)
    n_states = 1 << n_free
    for start in range(0, n_states, chunk_size):
        idx = np.arange(start, min(start + chunk_size, n_states), dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(bool)
        count = idx.shape[0]
        site_masks = np.broadcast_to(base_site_up, (count, n)).copy()
        link_masks = np.broadcast_to(base_link_up, (count, topology.n_links)).copy()
        site_masks[:, free_sites] = bits[:, : free_sites.size]
        link_masks[:, free_links] = bits[:, free_sites.size:]

        # One factor per fallible component, multiplied column by column
        # in the order the reference loop multiplies scalars.
        probs = np.ones(count, dtype=np.float64)
        for col, comp in enumerate(free_sites):
            probs *= np.where(bits[:, col], site_rel[comp], 1.0 - site_rel[comp])
        for col, comp in enumerate(free_links):
            probs *= np.where(bits[:, free_sites.size + col],
                              link_rel[comp], 1.0 - link_rel[comp])

        totals = batched_vote_totals(topology, site_masks, link_masks)
        # State-major flat bins replay the loop's per-state
        # ``matrix[arange(n), totals] += prob``.
        flat = (row_offsets[None, :] + totals).ravel()
        np.add.at(out, flat, np.repeat(probs, n))
    return out.reshape(n, T + 1)


def density_matrix_reference(sample, votes):
    """Per-state scoring loop: the oracle of ``_StateSample.density_matrix``.

    Identical math, one sampled state at a time. ``sample.labels`` are
    batch-global, so each state's ids are shifted to a local base first;
    grouping within a state — the only thing scoring depends on — is
    unchanged.
    """
    votes = np.asarray(votes, dtype=np.int64)
    T = int(votes.sum())
    counts = np.zeros((sample.n_sites, T + 1), dtype=np.float64)
    site_ids = np.arange(sample.n_sites)
    for k in range(sample.n_samples):
        labels = sample.labels[k]
        up = labels >= 0
        totals = np.zeros(sample.n_sites, dtype=np.int64)
        if up.any():
            base = int(labels[up].min())
            local = labels[up] - base
            sums = np.zeros(int(local.max()) + 1, dtype=np.int64)
            np.add.at(sums, local, votes[up])
            totals[up] = sums[local]
        counts[site_ids, totals] += 1.0
    return counts / sample.n_samples


def hillclimb_reference(topology, alpha, p, r, total_votes=None,
                        n_samples=2_000, max_iterations=50, seed=0):
    """Per-candidate hill climb: the oracle of ``optimize_votes``' sweep.

    The pre-sweep search: every legal single-vote move ``a -> b`` of every
    sweep is scored on its own by ``availability_of_votes`` (one
    histogram, one ``AvailabilityModel``, one ``optimal_read_quorum``),
    in ascending ``(a, b)`` order; a move must beat the current value by
    more than 1e-12 and be strictly better to displace the incumbent.
    ``optimize_votes`` must return an equal ``VoteSearchResult``.
    """
    from repro.quorum.vote_optimizer import (
        VoteSearchResult,
        _StateSample,
        availability_of_votes,
    )

    n = topology.n_sites
    T = n if total_votes is None else int(total_votes)
    sample = _StateSample(topology, p, r, n_samples=n_samples, seed=seed)
    votes = np.full(n, T // n, dtype=np.int64)
    votes[: T - int(votes.sum())] += 1
    value, quorum = availability_of_votes(sample, votes, alpha)
    evaluated = 1
    for _ in range(max_iterations):
        best_move = None
        for a in range(n):
            if votes[a] == 0:
                continue
            for b in range(n):
                if a == b:
                    continue
                evaluated += 1
                moved = votes.copy()
                moved[a] -= 1
                moved[b] += 1
                cand_value, cand_quorum = availability_of_votes(sample, moved, alpha)
                if cand_value > value + 1e-12 and (
                    best_move is None or cand_value > best_move[0]
                ):
                    best_move = (cand_value, a, b, cand_quorum)
        if best_move is None:
            break
        value, a, b, quorum = best_move
        votes[a] -= 1
        votes[b] += 1
    return VoteSearchResult(
        tuple(int(v) for v in votes), quorum, value, evaluated
    )


#: Compositions :func:`exhaustive_votes` scores at most.
MAX_EXHAUSTIVE_STATES = 200_000


def compositions(total, parts):
    """All non-negative integer vectors of length ``parts`` summing to ``total``."""
    for dividers in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for d in dividers:
            out.append(d - prev - 1)
            prev = d
        out.append(total + parts - 2 - prev)
        yield out


def exhaustive_votes(topology, alpha, p, r, total_votes=None,
                     n_samples=2_000, seed=0):
    """Every vote vector of the budget: the ground truth of ``optimize_votes``.

    Scores each composition of ``total_votes`` over the sites on the same
    shared sample ``optimize_votes`` draws (same ``n_samples`` and
    ``seed``), keeping the first best (a later one must beat it by more
    than 1e-12). Tiny systems only: more than
    :data:`MAX_EXHAUSTIVE_STATES` compositions raise ``OptimizationError``.
    """
    from math import comb

    from repro.errors import OptimizationError
    from repro.quorum.vote_optimizer import (
        VoteSearchResult,
        _StateSample,
        availability_of_votes,
    )

    n = topology.n_sites
    T = n if total_votes is None else int(total_votes)
    n_states = comb(T + n - 1, n - 1)
    if n_states > MAX_EXHAUSTIVE_STATES:
        raise OptimizationError(
            f"exhaustive vote search over {n_states} compositions exceeds the "
            f"{MAX_EXHAUSTIVE_STATES} cap")
    sample = _StateSample(topology, p, r, n_samples=n_samples, seed=seed)
    best = None
    for comp in compositions(T, n):
        votes = np.asarray(comp, dtype=np.int64)
        value, quorum = availability_of_votes(sample, votes, alpha)
        if best is None or value > best[0] + 1e-12:
            best = (value, votes, quorum)
    value, votes, quorum = best
    return VoteSearchResult(
        tuple(int(v) for v in votes), quorum, value, n_states)


def perstate_vote_histogram(topology, site_masks, link_masks):
    """Per-state labelling loop: the oracle of ``batched_vote_histogram``.

    One :func:`component_labels` + :func:`component_vote_totals` call per
    state, each state adding 1 to its ``(site, total)`` cells; the counts
    are small integers, so the two agree bit for bit.
    """
    counts = np.zeros((topology.n_sites, topology.total_votes + 1),
                      dtype=np.float64)
    site_ids = np.arange(topology.n_sites)
    for k in range(site_masks.shape[0]):
        labels = component_labels(topology, site_masks[k], link_masks[k])
        totals = component_vote_totals(labels, topology.votes)
        counts[site_ids, totals] += 1.0
    return counts


def raw_label_vote_histogram(topology, site_masks, link_masks):
    """Site-by-site binning of :func:`usable_links_raw_labels`: the oracle
    of ``batched_vote_histogram`` that shares no run, chord or
    difference-array step with it.

    Each up site's votes are added to its raw component, and every
    ``(state, site)`` entry adds 1 to the cell of its component's total
    (0 for a down site), one state at a time.
    """
    B, n = site_masks.shape
    _, raw = usable_links_raw_labels(topology, site_masks, link_masks)
    raw = raw.reshape(B, n)
    votes = topology.votes
    counts = np.zeros((n, topology.total_votes + 1), dtype=np.float64)
    for k in range(B):
        up = site_masks[k]
        sums = np.zeros(B * n, dtype=np.int64)
        np.add.at(sums, raw[k][up], votes[up])
        for site in range(n):
            counts[site, sums[raw[k, site]] if up[site] else 0] += 1.0
    return counts


def montecarlo_perstate_counts(topology, site_rel, link_rel, count, rng):
    """Per-state Monte-Carlo labelling loop (the pre-batching estimator).

    Draws masks exactly like ``analytic.montecarlo._chunk_counts``, so
    given the same generator state the two produce identical counts;
    only the labelling differs (one :func:`component_labels` call per
    state instead of one block-diagonal call per block).
    """
    site_masks = rng.random((count, topology.n_sites)) < site_rel
    link_masks = rng.random((count, topology.n_links)) < link_rel
    return perstate_vote_histogram(topology, site_masks, link_masks)


def suffix_failure_weights(q, k_max):
    """``W[i, t] = P(exactly t failures among components i..m-1)``."""
    m = q.shape[0]
    W = np.zeros((m + 1, k_max + 1), dtype=np.float64)
    W[m, 0] = 1.0
    for i in range(m - 1, -1, -1):
        W[i, 0] = W[i + 1, 0] * (1.0 - q[i])
        W[i, 1:] = W[i + 1, 1:] * (1.0 - q[i]) + W[i + 1, :-1] * q[i]
    return W


def conditional_failure_masks(q, k, count, rng, suffix):
    """Per-component conditional Bernoulli draw (the pre-table sampler).

    The oracle of ``analytic.variance._conditional_failure_masks``: it
    recomputes ``q_i W[i+1, t-1] / W[i, t]`` and both forced moves for
    every component of every stratum and draws one ``rng.random(count)``
    per component, which the table sampler must reproduce bit for bit,
    generator state included.
    """
    m = q.shape[0]
    failures = np.zeros((count, m), dtype=bool)
    remaining = np.full(count, k, dtype=np.int64)
    for i in range(m):
        denom = suffix[i, remaining]
        num = q[i] * np.where(remaining > 0,
                              suffix[i + 1, np.maximum(remaining - 1, 0)], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            prob = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
        # Forced moves are exact regardless of round-off: no failures
        # left -> up; as many left as components remain -> down.
        prob = np.where(remaining <= 0, 0.0, prob)
        prob = np.where(remaining >= m - i, 1.0, prob)
        fail = rng.random(count) < prob
        failures[:, i] = fail
        remaining -= fail.astype(np.int64)
    return failures


def joint_multinomial_epoch(workload, duration, rng):
    """One epoch of an ``ItemWorkload`` as one multinomial per kind.

    The oracle of ``ItemWorkload.sample_epoch``'s two-stage draw: Poisson
    total, binomial read split, then reads and writes each placed by one
    multinomial over the flattened ``(item, site)`` grid with cell
    probabilities ``item_p (x) site_w``. Same law, different stream, and
    ``O(n_items x n_sites)`` per epoch. Returns dense ``(reads, writes)``
    int64 grids of shape ``(n_items, n_sites)``.
    """
    shape = (workload.n_items, workload.n_sites)
    total = int(rng.poisson(workload.aggregate_rate * duration))
    if total == 0:
        return np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    mean_alpha = workload.mean_alpha
    weights = workload.item_weights
    alphas = workload.alphas
    read_items = weights * alphas / mean_alpha if mean_alpha > 0.0 else weights
    write_items = (weights * (1.0 - alphas) / (1.0 - mean_alpha)
                   if mean_alpha < 1.0 else weights)
    n_reads = int(rng.binomial(total, mean_alpha))
    reads = rng.multinomial(
        n_reads, np.outer(read_items, workload.read_site_weights).ravel())
    writes = rng.multinomial(
        total - n_reads, np.outer(write_items, workload.write_site_weights).ravel())
    return reads.reshape(shape), writes.reshape(shape)


def newest_copy_scan(db, site):
    """The newest copy in ``site``'s component, read off every store.

    The component comes from :func:`minlabel_component_labels` over the
    database's network state, not from its tracker. None when ``site`` is
    down.
    """
    state = db.state
    labels = minlabel_component_labels(db.topology, state.site_up, state.link_up)
    if labels[site] == DOWN_LABEL:
        return None
    copies = [copy for s, copy in enumerate(db.copies) if labels[s] == labels[site]]
    return max(copies, key=lambda copy: copy.timestamp)


def tree_density(topology, site, p, r):
    """Exact ``f_site(v)`` on a tree, by convolution over subtrees.

    Root the tree at ``site``. An up node's component within its subtree
    holds its own votes plus, independently per child ``c``, nothing
    (probability ``1 - r_uc * p_c``) or ``c``'s own subtree component.
    With no cycles those events are independent, so the density is a
    chain of convolutions, O(n * T^2). A star through a zero-vote hub
    is the paper's bus, which makes this the bus closed form's witness.
    """
    if topology.n_links != topology.n_sites - 1 or not topology.is_connected():
        raise TopologyError(f"{topology!r} is not a tree")
    site_rel = reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = reliability_vector(r, topology.n_links, "link reliability")
    T = topology.total_votes
    parent = {site: -1}
    order, stack = [], [site]
    while stack:  # iterative: a 2000-site path must not recurse
        u = stack.pop()
        order.append(u)
        for c in topology.neighbors(u):
            if c != parent[u]:
                parent[c] = u
                stack.append(c)
    subtree = {}
    for u in reversed(order):
        dist = np.zeros(T + 1)
        dist[int(topology.votes[u])] = 1.0
        for c in topology.neighbors(u):
            if c != parent[u]:
                keep = link_rel[topology.link_id(u, c)] * site_rel[c]
                branch = keep * subtree[c]
                branch[0] += 1.0 - keep
                dist = np.convolve(dist, branch)[: T + 1]
        subtree[u] = dist
    f = site_rel[site] * subtree[site]
    f[0] += 1.0 - site_rel[site]
    return f


def vote_quorum_groups(votes, threshold):
    """Minimal site sets holding at least ``threshold`` of ``votes``.

    The coterie view of weighted voting (the paper's footnote 1): a
    component may act iff it contains one of these groups. Enumerated by
    increasing size, so a superset of a group already found is never
    minimal. Exponential in the number of voting sites.
    """
    votes = [int(v) for v in votes]
    voters = [s for s, v in enumerate(votes) if v > 0]
    groups = []
    for size in range(1, len(voters) + 1):
        for combo in combinations(voters, size):
            group = frozenset(combo)
            if (sum(votes[s] for s in combo) >= threshold
                    and not any(g <= group for g in groups)):
                groups.append(group)
    return groups


def group_grant_masks(labels, read_groups, write_groups):
    """Grant masks by the coterie rule, one component at a time.

    A site may read (write) iff its component contains some read (write)
    group: the set-level oracle of a threshold protocol's ``grant_masks``.
    """
    labels = np.asarray(labels)
    read = np.zeros(labels.shape[0], dtype=bool)
    write = np.zeros(labels.shape[0], dtype=bool)
    for label in np.unique(labels[labels != DOWN_LABEL]):
        members = frozenset(np.flatnonzero(labels == label).tolist())
        read[list(members)] = any(g <= members for g in read_groups)
        write[list(members)] = any(g <= members for g in write_groups)
    return read, write


class TrackedQuorumConsensus(QuorumConsensusProtocol):
    """Static quorum consensus that the engine walks epoch by epoch.

    Overriding ``on_network_change`` (with the same no-op) keeps the
    engine on its ``ComponentTracker`` loop: the per-epoch oracle of the
    chunked labelling a plain ``QuorumConsensusProtocol`` gets. ``T``
    alone builds the majority assignment.
    """

    def __init__(self, assignment):
        if isinstance(assignment, int):
            assignment = QuorumAssignment.majority(assignment)
        super().__init__(assignment)

    def on_network_change(self, tracker):
        pass

"""Property tests: the production labellers vs an independent witness.

One state is labelled by ``component_labels``, a flood over Python-int
bitmasks of the live graph; blocks of states by the block labeller, whose
``B = 1`` block labels one state too. Both must reproduce, entry for
entry, the output of ``minlabel_component_labels`` (``tests/oracles.py``)
— a pointer-jumping min-propagation labeller that shares no code with
either: same compact first-seen component ids, same ``-1`` down sentinel,
over arbitrary topologies and up/down masks, and on explicit edge cases
(one site, no links, every site down, a down site with all its links up,
zero-vote sites, masks that span two and three 64-bit words).

Hypothesis drives random graphs (random edge subsets over the complete
graph, plus the named generator families) with random site/link masks.
On the paper's own topologies the flood and the ``B = 1`` block must agree
with each other, and the block builder must give bitwise the raw labels
of ``usable_links_raw_labels`` (``tests/oracles.py``),
which builds a graph of the usable links only, and bitwise its histogram
once that oracle's labels are binned site by site. The builder contracts
runs of path links ``(i, i + 1)`` on topologies that have enough of them
(``components.CONTRACT_PATH_SHARE``); an uncontracted block is flooded a
state at a time on a dense graph (``components.FLOOD_LINK_SHARE``) and
labelled by the union over its site graph otherwise. Each builder gate
runs every route: the contraction forced on, the shipped rule, and the
contraction forced off with the flood forced on and forced off, over
topologies renumbered so that they keep many, few or no path links.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import components
from repro.connectivity.components import (
    _batched_raw_labels,
    batched_component_labels,
    batched_vote_histogram,
    component_labels,
    component_vote_totals,
)
from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.topology.generators import (
    erdos_renyi,
    fully_connected,
    paper_topology,
    ring,
    ring_with_chords,
    star,
)
from repro.topology.model import Topology
from tests.oracles import (
    minlabel_component_labels,
    raw_label_vote_histogram,
    usable_links_raw_labels,
)


def block_labels(topology, site_up, link_up):
    """The ``B = 1`` block of the batched labeller."""
    return batched_component_labels(topology, site_up[None], link_up[None])[0]


#: The single-state flood and the ``B = 1`` block.
LABELLERS = (component_labels, block_labels)


@st.composite
def random_topologies(draw, min_sites=2, min_links=1):
    """An edge subset of K_n, ``n`` in ``min_sites..9``."""
    n = draw(st.integers(min_value=min_sites, max_value=9))
    all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if not all_edges:
        return Topology(n, [], name=f"random-{n}")
    edges = draw(
        st.lists(st.sampled_from(all_edges), min_size=min_links, unique=True)
    )
    return Topology(n, edges, name=f"random-{n}")


@st.composite
def family_topologies(draw):
    family = draw(st.sampled_from(["ring", "complete", "star", "irregular"]))
    n = draw(st.integers(min_value=3, max_value=9))
    if family == "ring":
        return ring(n)
    if family == "complete":
        return fully_connected(n)
    if family == "star":
        return star(n, hub=draw(st.integers(min_value=0, max_value=n - 1)))
    seed = draw(st.integers(min_value=0, max_value=999))
    return erdos_renyi(n, 0.4, seed=seed, ensure_connected=True)


@st.composite
def topology_with_masks(draw, topologies):
    topo = draw(topologies)
    site_up = np.array(
        draw(
            st.lists(
                st.booleans(), min_size=topo.n_sites, max_size=topo.n_sites
            )
        )
    )
    link_up = np.array(
        draw(
            st.lists(
                st.booleans(), min_size=topo.n_links, max_size=topo.n_links
            )
        )
    )
    return topo, site_up, link_up


@settings(max_examples=150, deadline=None)
@given(topology_with_masks(random_topologies()))
def test_labellers_agree_on_random_graphs(case):
    topo, site_up, link_up = case
    oracle = minlabel_component_labels(topo, site_up, link_up)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(labeller(topo, site_up, link_up), oracle)


@settings(max_examples=100, deadline=None)
@given(topology_with_masks(family_topologies()))
def test_labellers_agree_on_generator_families(case):
    topo, site_up, link_up = case
    oracle = minlabel_component_labels(topo, site_up, link_up)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(labeller(topo, site_up, link_up), oracle)


@given(topology_with_masks(random_topologies()))
def test_labels_are_compact_first_seen(case):
    # The contract every labeller promises to consumers, checked on the
    # witness itself so agreement with it means something.
    topo, site_up, link_up = case
    labels = minlabel_component_labels(topo, site_up, link_up)
    up = labels[labels >= 0]
    if up.size:
        # ids are 0..k-1 and first occurrences appear in increasing order
        firsts = [int(up[np.argmax(up == c)]) for c in range(up.max() + 1)]
        assert firsts == sorted(firsts)
        assert set(up.tolist()) == set(range(up.max() + 1))
    assert ((labels == -1) == ~site_up).all()


def test_all_sites_down():
    topo = ring(5)
    down = np.zeros(5, dtype=bool)
    links = np.ones(topo.n_links, dtype=bool)
    oracle = minlabel_component_labels(topo, down, links)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(labeller(topo, down, links), oracle)


def test_all_links_down_each_site_is_its_own_component():
    topo = fully_connected(6)
    sites = np.ones(6, dtype=bool)
    links = np.zeros(topo.n_links, dtype=bool)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(
            labeller(topo, sites, links), np.arange(6)
        )


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("chords", [0, 1, 2, 4, 16, 256, 4949])
def test_both_labellers_agree_on_paper_topologies(chords, p):
    topo = paper_topology(chords)
    rng = np.random.default_rng(chords)
    for _ in range(3):
        site_up = rng.random(topo.n_sites) < p
        link_up = rng.random(topo.n_links) < p
        np.testing.assert_array_equal(
            component_labels(topo, site_up, link_up),
            block_labels(topo, site_up, link_up))


def _masks(topo, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(topo.n_sites) < p, rng.random(topo.n_links) < p


def _hub_down(topo):
    """The hub of a star is down and every one of its links is up."""
    site_up = np.ones(topo.n_sites, dtype=bool)
    site_up[0] = False
    return site_up, np.ones(topo.n_links, dtype=bool)


EXPLICIT_CASES = {
    "one-site-up": lambda: (Topology(1, []), np.ones(1, bool), np.ones(0, bool)),
    "one-site-down": lambda: (Topology(1, []), np.zeros(1, bool), np.ones(0, bool)),
    "no-links": lambda: (Topology(5, []), np.array([1, 0, 1, 1, 0], bool),
                         np.ones(0, bool)),
    "every-site-down": lambda: (ring(7), np.zeros(7, bool), np.ones(7, bool)),
    "down-hub-links-up": lambda: (star(6, hub=0), *_hub_down(star(6, hub=0))),
    "zero-votes": lambda: (Topology(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)],
                                    votes=[0, 0, 3, 0, 1, 0], name="zero-votes"),
                           np.ones(6, bool), np.array([1, 1, 0, 1, 1], bool)),
    "64-sites": lambda: (fully_connected(64), *_masks(fully_connected(64), 0.2)),
    "65-sites": lambda: (ring(65), *_masks(ring(65), 0.9)),
    "101-sites": lambda: (paper_topology(16), *_masks(paper_topology(16), 0.9)),
    "101-sites-complete": lambda: (paper_topology(4949),
                                   *_masks(paper_topology(4949), 0.05, seed=1)),
    "130-sites": lambda: (ring_with_chords(130, 8),
                          *_masks(ring_with_chords(130, 8), 0.9)),
    "130-sites-all-up": lambda: (ring_with_chords(130, 8), np.ones(130, bool),
                                 np.ones(ring_with_chords(130, 8).n_links, bool)),
}


@pytest.mark.parametrize("name", sorted(EXPLICIT_CASES))
def test_labellers_on_explicit_cases(name):
    topo, site_up, link_up = EXPLICIT_CASES[name]()
    oracle = minlabel_component_labels(topo, site_up, link_up)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(labeller(topo, site_up, link_up), oracle)
    # The tracker's full recompute is the same flood, plus the vote totals.
    tracker = ComponentTracker(NetworkState(topo, site_up, link_up))
    np.testing.assert_array_equal(tracker.labels, oracle)
    np.testing.assert_array_equal(tracker.vote_totals,
                                  component_vote_totals(oracle, topo.votes))


# --- the block builder: runs and chords, raw labels bitwise the oracle's


def fresh(topo):
    """A copy of ``topo``: a topology decides on contraction when it is
    first labelled, so a patched rule needs a topology not labelled yet."""
    return Topology(topo.n_sites, [link.endpoints() for link in topo.links],
                    votes=topo.votes, name=topo.name)


#: ``(CONTRACT_PATH_SHARE, FLOOD_LINK_SHARE)`` of each route: contracted
#: (every topology that has a path link), the shipped rule, and an
#: uncontracted block flooded or taken by the site-graph union.
ROUTES = {
    "contracted": (0.0, math.inf),
    "shipped": (components.CONTRACT_PATH_SHARE, components.FLOOD_LINK_SHARE),
    "flood": (math.inf, 0.0),
    "site-union": (math.inf, math.inf),
}


@contextlib.contextmanager
def routed(route):
    """Force ``route`` on the topologies first labelled inside the block."""
    contract, flood = ROUTES[route]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(components, "CONTRACT_PATH_SHARE", contract)
        patch.setattr(components, "FLOOD_LINK_SHARE", flood)
        yield


def on_each_side(check, topo, *masks):
    """``check`` on every route, each on a fresh copy of ``topo``."""
    for route in ROUTES:
        with routed(route):
            check(topo, *masks)


@st.composite
def relabelled_topologies(draw):
    """A ring plus chords with its sites renumbered, votes 0..3 per site.

    In ring order it keeps every path link but the closing one; shuffled
    it keeps few; renumbered by stride 2 (odd ``n``) a bare ring keeps
    none.
    """
    n = draw(st.integers(min_value=3, max_value=12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    chords = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=2 * n))
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {tuple(sorted(c)) for c in chords}
    order = draw(st.sampled_from(["ring", "shuffled", "stride"]))
    if order == "ring":
        perm = list(range(n))
    elif order == "stride" and n % 2:
        perm = [2 * i % n for i in range(n)]
    else:
        perm = draw(st.permutations(range(n)))
    votes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                 .filter(lambda v: sum(v) > 0))
    return Topology(n, [(perm[a], perm[b]) for a, b in sorted(edges)],
                    votes=votes, name=f"{order}-{n}")


def block_masks(topo, B, state, seed=0):
    if state == "all-up":
        return np.ones((B, topo.n_sites), bool), np.ones((B, topo.n_links), bool)
    if state == "all-down":
        return np.zeros((B, topo.n_sites), bool), np.zeros((B, topo.n_links), bool)
    if state == "sites-down":
        return np.zeros((B, topo.n_sites), bool), np.ones((B, topo.n_links), bool)
    if state == "links-down":
        return np.ones((B, topo.n_sites), bool), np.zeros((B, topo.n_links), bool)
    rng = np.random.default_rng(seed)
    p, r = rng.random(2)
    return (rng.random((B, topo.n_sites)) < p, rng.random((B, topo.n_links)) < r)


def assert_builder_matches_oracle(topo, site_masks, link_masks):
    n_comp, raw = _batched_raw_labels(fresh(topo), site_masks, link_masks)
    want_comp, want_raw = usable_links_raw_labels(topo, site_masks, link_masks)
    assert n_comp == want_comp
    assert raw.dtype == want_raw.dtype
    np.testing.assert_array_equal(raw, want_raw)


def assert_block_matches_minlabel(topo, site_masks, link_masks):
    labels = batched_component_labels(fresh(topo), site_masks, link_masks)
    for got, site_up, link_up in zip(labels, site_masks, link_masks):
        # Block ids are batch-global and ascend state by state.
        up = got >= 0
        if up.any():
            got[up] -= got[up].min()
        np.testing.assert_array_equal(
            got, minlabel_component_labels(topo, site_up, link_up))


def assert_histogram_matches_oracle(topo, site_masks, link_masks):
    counts = batched_vote_histogram(fresh(topo), site_masks, link_masks)
    assert counts.dtype == np.float64
    np.testing.assert_array_equal(
        counts, raw_label_vote_histogram(topo, site_masks, link_masks))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_topologies(min_sites=1, min_links=0), relabelled_topologies()),
       st.sampled_from([1, 2, 257]),
       st.sampled_from(["random", "all-up", "all-down"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_block_builder_is_bitwise_the_oracle(topo, B, state, seed):
    on_each_side(assert_builder_matches_oracle, topo, *block_masks(topo, B, state, seed))


@settings(max_examples=100, deadline=None)
@given(relabelled_topologies(), st.sampled_from([1, 2, 33]),
       st.sampled_from(["random", "all-up", "all-down"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_vote_histogram_is_bitwise_the_binned_oracle(topo, B, state, seed):
    on_each_side(assert_histogram_matches_oracle, topo, *block_masks(topo, B, state, seed))


def test_the_rule_contracts_the_sparse_paper_topologies_only():
    # Path links / links: .99 (ring), .85 (16 chords), .28 (256 chords)
    # against .02 for the complete graph.
    for chords in (0, 16, 256):
        assert components._run_layout(paper_topology(chords)).path is not None
    assert components._run_layout(paper_topology(4949)).path is None


EDGE_TOPOLOGIES = [
    Topology(1, [], name="one-site"),
    Topology(4, [], name="no-links"),
    Topology(6, [(0, 1), (1, 3), (4, 5)], name="isolated-sites"),
    Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4)], votes=[2, 0, 1, 3, 0],
             name="path-only"),
    Topology(6, [(0, 2), (2, 4), (1, 4), (1, 3), (3, 5), (0, 5)],
             votes=[1, 0, 2, 1, 3, 0], name="ring-without-path-links"),
    Topology(8, [(3, 6), (6, 1), (1, 7), (7, 0), (0, 4), (4, 2), (2, 5), (3, 5),
                 (1, 4), (5, 6)], name="shuffled-ring-one-path-link"),
    ring(7),
    fully_connected(6),
]


@pytest.mark.parametrize("state", ["random", "all-up", "all-down"])
@pytest.mark.parametrize("B", [1, 2, 257])
@pytest.mark.parametrize("topo", EDGE_TOPOLOGIES, ids=lambda topo: topo.name)
def test_block_builder_edge_cases(topo, B, state):
    on_each_side(assert_builder_matches_oracle, topo, *block_masks(topo, B, state))
    on_each_side(assert_histogram_matches_oracle, topo, *block_masks(topo, B, state))


@pytest.mark.parametrize("route", ["flood", "site-union"])
@settings(max_examples=100, deadline=None)
@given(st.one_of(random_topologies(min_sites=1, min_links=0), relabelled_topologies()),
       st.sampled_from([1, 3, 40]),
       st.sampled_from(["random", "all-up", "sites-down", "links-down"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_each_uncontracted_route_is_bitwise_both_oracles(route, topo, B, state, seed):
    masks = block_masks(topo, B, state, seed)
    with routed(route):
        assert_builder_matches_oracle(topo, *masks)
        assert_block_matches_minlabel(topo, *masks)
        assert_histogram_matches_oracle(topo, *masks)


WORD_EDGE_TOPOLOGIES = [
    Topology(1, [], name="one-site"),
    fully_connected(63),
    fully_connected(64),
    fully_connected(65, votes=[s % 3 for s in range(65)]).with_name("zero-votes-65"),
    ring_with_chords(65, 40),
    fully_connected(128),
]


@pytest.mark.parametrize("state", ["random", "all-up", "sites-down", "links-down"])
@pytest.mark.parametrize("topo", WORD_EDGE_TOPOLOGIES, ids=lambda topo: topo.name)
def test_block_routes_at_word_edges(topo, state):
    """Sites 63, 64, 65 and 128 end a 64-bit word or spill into the next."""
    masks = block_masks(topo, 3, state, seed=topo.n_sites)
    on_each_side(assert_builder_matches_oracle, topo, *masks)
    on_each_side(assert_block_matches_minlabel, topo, *masks)
    on_each_side(assert_histogram_matches_oracle, topo, *masks)


def test_the_rule_floods_dense_site_graphs_only():
    # Links / site pairs: 1.0 for a complete graph whose path links are
    # too few to contract (.02 at 101 sites, .05 at 40); the sparse paper
    # topologies are contracted before the rule is asked.
    assert components._run_layout(paper_topology(4949)).flood
    assert components._run_layout(fully_connected(40)).flood
    for chords in (0, 16, 256):
        assert not components._run_layout(paper_topology(chords)).flood
    # A renumbered ring keeps no path link: a site graph, but sparse.
    stride = Topology(9, [(2 * i % 9, 2 * (i + 1) % 9) for i in range(9)])
    assert components._run_layout(stride).path is None
    assert not components._run_layout(stride).flood


def test_single_state_masks_are_the_builders_b1_block():
    """``_live_masks`` keeps a link at a down site (the tracker needs it when
    the site comes back); the block's rows drop it."""
    topo = fully_connected(70)
    site_up, link_up = _masks(topo, 0.8, seed=3)
    adj, up = components._live_masks(topo, site_up, link_up)
    u, v = topo.link_endpoint_arrays()
    want = [0] * topo.n_sites
    for a, b in zip(u[link_up].tolist(), v[link_up].tolist()):
        want[a] |= 1 << b
        want[b] |= 1 << a
    assert adj == want
    assert up == sum(1 << s for s in np.flatnonzero(site_up).tolist())
    masked = components._adjacency_rows(topo, link_up[None], site_up[None])
    assert masked == [row & up if site_up[s] else 0 for s, row in enumerate(want)]

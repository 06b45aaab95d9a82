"""Property tests: the production labellers vs an independent witness.

``component_labels`` dispatches on link count between a union-find and a
scipy csgraph call. Both must reproduce, entry for entry, the output of
``minlabel_component_labels`` (``tests/oracles.py``) — a pointer-jumping
min-propagation labeller that shares no code with either: same compact
first-seen component ids, same ``-1`` down sentinel, over arbitrary
topologies and up/down masks.

Hypothesis drives random graphs (random edge subsets over the complete
graph, plus the named generator families) with random site/link masks.
On the paper's own topologies the two sides of the dispatch must agree
with each other, and the block builder under the csgraph side must give
bitwise the raw labels of ``usable_links_raw_labels`` (``tests/oracles.py``),
which builds a graph of the usable links only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.components import (
    _batched_raw_labels,
    _labels_csgraph,
    _labels_unionfind,
    component_labels,
)
from repro.topology.generators import (
    erdos_renyi,
    fully_connected,
    paper_topology,
    ring,
    star,
)
from repro.topology.model import Topology
from tests.oracles import minlabel_component_labels, usable_links_raw_labels

#: Both sides of ``component_labels``' link-count dispatch, plus the
#: dispatcher itself (which adds the mask validation).
LABELLERS = (_labels_unionfind, _labels_csgraph, component_labels)


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
            _labels_unionfind(topo, site_up, link_up),
            _labels_csgraph(topo, site_up, link_up))


# --- the block builder: a fixed-shape graph, raw labels bitwise the oracle's


def block_masks(topo, B, state, seed=0):
    if state == "all-up":
        return np.ones((B, topo.n_sites), bool), np.ones((B, topo.n_links), bool)
    if state == "all-down":
        return np.zeros((B, topo.n_sites), bool), np.zeros((B, topo.n_links), bool)
    rng = np.random.default_rng(seed)
    p, r = rng.random(2)
    return (rng.random((B, topo.n_sites)) < p, rng.random((B, topo.n_links)) < r)


def assert_builder_matches_oracle(topo, site_masks, link_masks):
    n_comp, raw = _batched_raw_labels(topo, site_masks, link_masks)
    want_comp, want_raw = usable_links_raw_labels(topo, site_masks, link_masks)
    assert n_comp == want_comp
    assert raw.dtype == want_raw.dtype
    np.testing.assert_array_equal(raw, want_raw)


@settings(max_examples=150, deadline=None)
@given(random_topologies(min_sites=1, min_links=0), st.sampled_from([1, 2, 257]),
       st.sampled_from(["random", "all-up", "all-down"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_block_builder_is_bitwise_the_oracle(topo, B, state, seed):
    assert_builder_matches_oracle(topo, *block_masks(topo, B, state, seed))


@pytest.mark.parametrize("state", ["random", "all-up", "all-down"])
@pytest.mark.parametrize("B", [1, 2, 257])
@pytest.mark.parametrize("topo", [
    Topology(1, [], name="one-site"),
    Topology(4, [], name="no-links"),
    Topology(6, [(0, 1), (1, 3), (4, 5)], name="isolated-sites"),
    ring(7),
    fully_connected(6),
], ids=lambda topo: topo.name)
def test_block_builder_edge_cases(topo, B, state):
    assert_builder_matches_oracle(topo, *block_masks(topo, B, state))

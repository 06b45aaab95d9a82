"""Property tests: the production labellers vs an independent witness.

``component_labels`` dispatches on link count between a union-find and a
scipy csgraph call. Both must reproduce, entry for entry, the output of
``minlabel_component_labels`` (``tests/oracles.py``) — a pointer-jumping
min-propagation labeller that shares no code with either: same compact
first-seen component ids, same ``-1`` down sentinel, over arbitrary
topologies and up/down masks.

Hypothesis drives random graphs (random edge subsets over the complete
graph, plus the named generator families) with random site/link masks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.components import (
    _labels_csgraph,
    _labels_unionfind,
    component_labels,
)
from repro.topology.generators import erdos_renyi, fully_connected, ring, star
from repro.topology.model import Topology
from tests.oracles import minlabel_component_labels

#: Both sides of ``component_labels``' link-count dispatch, plus the
#: dispatcher itself (which adds the mask validation).
LABELLERS = (_labels_unionfind, _labels_csgraph, component_labels)


@st.composite
def random_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(all_edges), min_size=1, unique=True)
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

"""Property tests: the alternative labellers vs ``component_labels``.

``component_labels`` (scipy csgraph under the hood) is the oracle. The
two alternatives must reproduce its exact output — same compact
first-seen component ids, same ``-1`` down sentinel — over arbitrary
topologies and up/down masks:

- ``components_unionfind`` — the pointer-chasing weighted quick-union
  used as the reference implementation inside the enumeration kernels;
- ``minlabel_component_labels`` — the pointer-jumping min-propagation
  labeller (the algorithm the vectorized enumeration backend descends
  from), whose roots are component-minimum site ids and therefore
  compact to the same first-seen order. It has no caller in ``src/``,
  so it lives here, as the independent witness it is.

Hypothesis drives random graphs (random edge subsets over the complete
graph, plus the named generator families) with random site/link masks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.components import (
    DOWN_LABEL,
    component_labels,
    components_unionfind,
)
from repro.topology.generators import erdos_renyi, fully_connected, ring, star
from repro.topology.model import Topology


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
    that minimum. This was the candidate per-state labeller for the
    compiled enumeration backend (the collapse-DFS kernel won — see
    DESIGN.md §15).
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


LABELLERS = (components_unionfind, minlabel_component_labels)


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
    oracle = component_labels(topo, site_up, link_up)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(labeller(topo, site_up, link_up), oracle)


@settings(max_examples=100, deadline=None)
@given(topology_with_masks(family_topologies()))
def test_labellers_agree_on_generator_families(case):
    topo, site_up, link_up = case
    oracle = component_labels(topo, site_up, link_up)
    for labeller in LABELLERS:
        np.testing.assert_array_equal(labeller(topo, site_up, link_up), oracle)


@given(topology_with_masks(random_topologies()))
def test_labels_are_compact_first_seen(case):
    # The shared contract all three labellers promise to consumers.
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
    oracle = component_labels(topo, down, links)
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

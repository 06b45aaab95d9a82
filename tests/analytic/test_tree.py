"""The tree-density oracle against exact enumeration, and the bus closed
form against the oracle.

``tests/oracles.py::tree_density`` shares no code with the enumeration
kernels or with ``analytic/bus.py``, so agreement here checks all three.
"""

import numpy as np
import pytest

from repro.analytic.bus import bus_density
from repro.analytic.enumeration import enumerate_density, enumerate_density_matrix
from repro.errors import DensityError, TopologyError
from repro.topology.generators import bus, random_tree, ring, star
from repro.topology.model import Topology
from tests.oracles import tree_density


def tree_density_matrix(topology, p, r):
    return np.stack([tree_density(topology, s, p, r) for s in topology.sites()])


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("p,r", [(0.9, 0.8), (0.96, 0.96), (0.5, 0.6)])
    def test_random_trees_match_enumeration(self, seed, p, r):
        topo = random_tree(7, seed=seed)
        expected = enumerate_density_matrix(topo, p, r)
        got = tree_density_matrix(topo, p, r)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_path_graph_by_hand(self):
        # Path 0-1-2 with p=1: f_1 depends only on link states.
        topo = Topology(3, [(0, 1), (1, 2)])
        r = 0.7
        f = tree_density(topo, 1, 1.0, r)
        assert f[1] == pytest.approx((1 - r) ** 2)
        assert f[2] == pytest.approx(2 * r * (1 - r))
        assert f[3] == pytest.approx(r * r)

    def test_star_center_vs_leaf(self):
        topo = star(6, hub=0)
        p, r = 0.9, 0.8
        hub = tree_density(topo, 0, p, r)
        leaf = tree_density(topo, 3, p, r)
        np.testing.assert_allclose(hub, enumerate_density(topo, 0, p, r), atol=1e-12)
        np.testing.assert_allclose(leaf, enumerate_density(topo, 3, p, r), atol=1e-12)
        # A leaf is cut off by one link; the hub by five: leaf singleton
        # mass exceeds the hub's.
        assert leaf[1] > hub[1]

    def test_heterogeneous_reliabilities(self):
        topo = random_tree(6, seed=3)
        rng = np.random.default_rng(0)
        p = rng.uniform(0.5, 1.0, size=6)
        r = rng.uniform(0.5, 1.0, size=5)
        expected = enumerate_density_matrix(topo, p, r)
        got = tree_density_matrix(topo, p, r)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_weighted_votes(self):
        topo = Topology(4, [(0, 1), (1, 2), (1, 3)], votes=[2, 1, 3, 1])
        expected = enumerate_density_matrix(topo, 0.85, 0.75)
        got = tree_density_matrix(topo, 0.85, 0.75)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_bus_encoding_cross_check(self):
        """The tree oracle on the star-through-a-hub encoding reproduces
        the independent-sites bus closed form — two derivations, one answer."""
        n, p, r = 6, 0.9, 0.8
        topo = bus(n)  # hub = site n with zero votes
        site_rel = np.full(n + 1, p)
        site_rel[n] = r
        f = tree_density(topo, 0, site_rel, 1.0)
        expected = bus_density(n, p, r, sites_need_bus=False)
        np.testing.assert_allclose(f, expected, atol=1e-12)


class TestScalability:
    def test_large_tree_is_fast_and_valid(self):
        topo = random_tree(300, seed=1)
        f = tree_density(topo, 0, 0.96, 0.96)
        assert f.shape == (301,)
        assert f.sum() == pytest.approx(1.0)
        assert f[0] == pytest.approx(0.04)

    def test_deep_path_no_recursion_limit(self):
        n = 2000
        topo = Topology(n, [(i, i + 1) for i in range(n - 1)])
        f = tree_density(topo, 0, 0.99, 0.99)
        assert f.sum() == pytest.approx(1.0)


class TestValidation:
    def test_rejects_non_tree(self):
        with pytest.raises(TopologyError):
            tree_density(ring(5), 0, 0.9, 0.9)
        disconnected = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError):
            tree_density(disconnected, 0, 0.9, 0.9)

    def test_rejects_unknown_site(self):
        with pytest.raises(TopologyError):
            tree_density(random_tree(5, seed=0), 9, 0.9, 0.9)

    def test_rejects_bad_reliability(self):
        with pytest.raises(DensityError):
            tree_density(random_tree(5, seed=0), 0, 1.2, 0.9)

    def test_single_site_tree(self):
        topo = Topology(1, [])
        f = tree_density(topo, 0, 0.9, 1.0)
        assert f[0] == pytest.approx(0.1)
        assert f[1] == pytest.approx(0.9)

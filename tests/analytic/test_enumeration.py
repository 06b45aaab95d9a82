"""Unit tests for the exhaustive enumeration oracle itself."""

import hashlib

import numpy as np
import pytest

from repro.analytic import cache as density_cache
from repro.analytic.enumeration import enumerate_density, enumerate_density_matrix
from repro.analytic.ring import ring_density_matrix
from repro.errors import DensityError, TopologyError
from repro.topology.generators import fully_connected, paper_topology, ring
from repro.topology.model import Topology


class TestEnumerationBasics:
    def test_rows_are_densities(self):
        matrix = enumerate_density_matrix(ring(4), 0.8, 0.7)
        assert matrix.shape == (4, 5)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        assert (matrix >= 0).all()

    def test_two_site_line_by_hand(self):
        # Sites a-b joined by one link; site rel p, link rel r.
        p, r = 0.9, 0.5
        topo = Topology(2, [(0, 1)])
        f = enumerate_density(topo, 0, p, r)
        assert f[0] == pytest.approx(1 - p)
        assert f[2] == pytest.approx(p * p * r)          # both up, link up
        assert f[1] == pytest.approx(p * (1 - p) + p * p * (1 - r))

    def test_weighted_votes(self):
        topo = Topology(2, [(0, 1)], votes=[2, 3])
        f0 = enumerate_density(topo, 0, 1.0, 0.5)
        # Site 0 alone: 2 votes; joined: 5 votes.
        assert f0[2] == pytest.approx(0.5)
        assert f0[5] == pytest.approx(0.5)

    def test_pinned_components_skip_enumeration(self):
        # Perfect links: density of a 3-ring reduces to site states only.
        topo = ring(3)
        f = enumerate_density(topo, 0, 0.8, 1.0)
        # Site 0 in component of v votes = number of up sites (if 0 up).
        assert f[0] == pytest.approx(0.2)
        assert f[3] == pytest.approx(0.8 * 0.8 * 0.8)

    def test_zero_reliability_site(self):
        topo = Topology(2, [(0, 1)])
        f = enumerate_density(topo, 0, np.array([0.0, 1.0]), 1.0)
        assert f[0] == pytest.approx(1.0)

    def test_per_component_reliabilities(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        matrix = enumerate_density_matrix(
            topo, np.array([1.0, 0.5, 1.0]), np.array([1.0, 1.0])
        )
        # Site 1 down half the time: site 0 component is {0} or {0,1,2}.
        assert matrix[0][1] == pytest.approx(0.5)
        assert matrix[0][3] == pytest.approx(0.5)

    def test_safety_cap(self):
        topo = ring(20)  # 40 fallible components > cap
        with pytest.raises(DensityError):
            enumerate_density_matrix(topo, 0.9, 0.9)

    def test_unknown_site(self):
        with pytest.raises(TopologyError):
            enumerate_density(ring(3), 7, 0.9, 0.9)

    def test_bad_reliability_shape(self):
        with pytest.raises(DensityError):
            enumerate_density_matrix(ring(3), np.array([0.9, 0.9]), 0.9)


def _weighted_pinned():
    """Votes with a zero-vote site, a site pinned up (p = 1) and one pinned
    down (p = 0), two links pinned up (r = 1, the merge-in-place path) and
    a pair {5, 6} joined to nothing else."""
    topo = Topology(7, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (2, 4), (5, 6)],
                    votes=[2, 0, 1, 3, 1, 2, 1])
    p = np.array([0.9, 0.7, 1.0, 0.8, 0.0, 0.6, 0.95])
    r = np.array([0.8, 1.0, 0.7, 1.0, 0.6, 0.9, 0.85])
    return topo, p, r


#: ``(topology, p, r, chunk_size, sha256 of the matrix bytes)``. The
#: collapse-DFS's row order, stack split points and flush boundaries fix
#: its accumulation order, so any change to them shows here.
PINNED = [
    pytest.param(ring(10), 0.9, 0.8, 8192,
                 "40fe3db6f6f02acd8ceec346441ed77b5e4b5927869d8617deb89ec2e7ed5317",
                 id="ring10"),
    pytest.param(paper_topology(2, n_sites=10), 0.95, 0.85, 8192,
                 "7fc53a1d3e0720cd28cccd3f3b093a4a6d04f7412b04255e976b809965168588",
                 id="paper2-10"),
    pytest.param(fully_connected(6), 0.8, 0.7, 8192,
                 "b814aa76bd2f10e686765e5f1ffa0f2ab67339f21d2d1d038e34aef28d2e3e08",
                 id="complete6"),
    pytest.param(*_weighted_pinned(), 8192,
                 "6cb6a70032e278c54831dbe8e6d39bbb1d8f5e8bb67279b703d736cb57d78bef",
                 id="weighted-pinned"),
    pytest.param(*_weighted_pinned(), 64,
                 "2b0efe4ba9ceb54c25fcabc48793ebcbb9210b602473d08a0f7bbdeb6d3ffa66",
                 id="weighted-pinned-cap64"),
    pytest.param(ring(12), 0.9, 0.85, 64,
                 "9cb840e9abefbb383d2bef353ee1886ef4f21ed39219d1c910267b7da49f8111",
                 id="ring12-cap64"),
]


class TestCollapseDFSBytes:
    """The default kernel's output bytes, pinned, and each pinned matrix
    checked against an independent exact computation."""

    @pytest.fixture(autouse=True)
    def _no_cache(self):
        with density_cache.disabled():
            yield

    @pytest.mark.parametrize("topo,p,r,chunk_size,digest", PINNED)
    def test_bytes_are_pinned(self, topo, p, r, chunk_size, digest):
        matrix = enumerate_density_matrix(topo, p, r, chunk_size=chunk_size)
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("topo,p,r,chunk_size,digest", PINNED)
    def test_pinned_matrix_is_exact(self, topo, p, r, chunk_size, digest):
        matrix = enumerate_density_matrix(topo, p, r, chunk_size=chunk_size)
        if topo.n_sites + topo.n_links > 22:
            # 2^24 states cost the witness ~20 s; the ring's closed form
            # is exact and shares no code with either kernel.
            reference = ring_density_matrix(topo, p, r)
        else:
            reference = enumerate_density_matrix(topo, p, r, backend="exact-order")
        assert np.abs(matrix - reference).max() <= 1e-12

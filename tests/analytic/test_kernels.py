"""The fast exact reference vs the per-state loop, both in ``tests/oracles.py``.

``enumerate_density_matrix_exact_order`` vectorizes the per-state
``itertools.product`` loop without reordering any floating-point
operation, so it must be **bitwise identical** to it — every probability
product and every accumulation happens in the same order. These tests
pin that with ``np.array_equal`` (no tolerances) on each topology family
the verification corpus exercises and across chunk sizes, which is what
lets the suite compare the collapse-DFS against it at 2^22 states. The
density cache is disabled throughout so every production call runs the
real kernel.
"""

import numpy as np
import pytest

from repro.analytic import cache as density_cache
from repro.analytic.enumeration import (
    enumerate_density,
    enumerate_density_matrix,
)
from repro.topology.generators import bus, fully_connected, ring, star
from tests.oracles import (
    enumerate_density_matrix_exact_order,
    enumerate_density_matrix_reference,
)


@pytest.fixture(autouse=True)
def _no_cache():
    with density_cache.disabled():
        yield


def _bus_case(n_sites: int, p: float, r: float):
    """The star-through-a-zero-vote-hub encoding with per-component rels:
    real sites at ``p``, the hub (playing the bus) at ``r``, spokes
    perfect — the encoding the verification corpus enumerates exactly."""
    topo = bus(n_sites)
    site_rel = np.concatenate([np.full(n_sites, p), [r]])
    link_rel = np.ones(topo.n_links)
    return topo, site_rel, link_rel


CASES = [
    pytest.param(ring(4), 0.8, 0.7, id="ring4"),
    pytest.param(ring(5), 0.96, 0.96, id="ring5"),
    pytest.param(fully_connected(4), 0.9, 0.6, id="complete4"),
    pytest.param(ring(4, votes=[2, 1, 1, 3]), 0.85, 0.75, id="ring4-weighted"),
]


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("topo,p,r", CASES)
    def test_matrix_matches_reference(self, topo, p, r):
        ref = enumerate_density_matrix_reference(topo, p, r)
        fast = enumerate_density_matrix_exact_order(topo, p, r)
        assert np.array_equal(ref, fast)

    def test_bus_star_pinned_matches_reference(self):
        topo, site_rel, link_rel = _bus_case(6, 0.9, 0.8)
        ref = enumerate_density_matrix_reference(topo, site_rel, link_rel)
        fast = enumerate_density_matrix_exact_order(topo, site_rel, link_rel)
        assert np.array_equal(ref, fast)

    def test_star_with_pinned_sites(self):
        # Sites pinned fully up (rel 1.0) and fully down (rel 0.0) are
        # excluded from enumeration; the masks must still place them
        # correctly in every state.
        topo = star(6, hub=0)
        p = np.array([1.0, 0.9, 0.0, 0.8, 1.0, 0.7])
        ref = enumerate_density_matrix_reference(topo, p, 0.85)
        fast = enumerate_density_matrix_exact_order(topo, p, 0.85)
        assert np.array_equal(ref, fast)

    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 100_000])
    def test_chunk_size_never_changes_bits(self, chunk_size):
        topo = ring(5)
        ref = enumerate_density_matrix_reference(topo, 0.9, 0.8)
        fast = enumerate_density_matrix_exact_order(topo, 0.9, 0.8,
                                                    chunk_size=chunk_size)
        assert np.array_equal(ref, fast)

    @pytest.mark.parametrize("topo,p,r", CASES)
    def test_single_row_path(self, topo, p, r):
        # Production: a single site's density is its row of the matrix.
        full = enumerate_density_matrix(topo, p, r)
        for site in range(topo.n_sites):
            row = enumerate_density(topo, site, p, r)
            assert np.array_equal(full[site], row)


class TestKernelValidation:
    def test_reference_is_a_density(self):
        matrix = enumerate_density_matrix_reference(ring(4), 0.8, 0.7)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

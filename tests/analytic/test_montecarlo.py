"""Monte-Carlo density estimation vs the exact oracle and closed forms."""

import numpy as np
import pytest

from repro.analytic.complete import complete_density
from repro.analytic.enumeration import enumerate_density_matrix
from repro.analytic.montecarlo import montecarlo_density, montecarlo_density_matrix
from repro.errors import SimulationError, TopologyError
from repro.topology.generators import fully_connected, grid, ring


class TestMonteCarloAccuracy:
    def test_converges_to_enumeration_on_ring(self):
        topo = ring(5)
        exact = enumerate_density_matrix(topo, 0.9, 0.8)
        approx = montecarlo_density_matrix(topo, 0.9, 0.8, n_samples=40_000, seed=0)
        assert np.abs(approx - exact).max() < 0.015

    def test_converges_to_closed_form_on_complete(self):
        n = 6
        exact = complete_density(n, 0.9, 0.7)
        approx = montecarlo_density(fully_connected(n), 0, 0.9, 0.7,
                                    n_samples=40_000, seed=1)
        assert np.abs(approx - exact).max() < 0.015

    def test_works_on_general_graph(self):
        """Grids have no closed form — the MC estimator is the only option."""
        topo = grid(3, 3)
        f = montecarlo_density(topo, 4, 0.9, 0.9, n_samples=4_000, seed=2)
        assert f.shape == (10,)
        assert f.sum() == pytest.approx(1.0)
        assert f[0] == pytest.approx(0.1, abs=0.02)  # centre site down prob


class TestMonteCarloMechanics:
    def test_deterministic_by_seed(self):
        topo = ring(6)
        a = montecarlo_density_matrix(topo, 0.9, 0.9, n_samples=500, seed=42)
        b = montecarlo_density_matrix(topo, 0.9, 0.9, n_samples=500, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        topo = ring(6)
        a = montecarlo_density_matrix(topo, 0.9, 0.9, n_samples=500, seed=1)
        b = montecarlo_density_matrix(topo, 0.9, 0.9, n_samples=500, seed=2)
        assert not np.array_equal(a, b)

    def test_batching_covers_exact_sample_count(self):
        """An uneven batch split must still account for every sample."""
        topo = ring(5)
        a = montecarlo_density_matrix(topo, 0.9, 0.9, n_samples=301, seed=3, batch_size=7)
        # Row masses are counts/n_samples; each row must sum to exactly 1.
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        matrix = montecarlo_density_matrix(ring(4), 0.8, 0.8, n_samples=200, seed=0)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_invalid_sample_count(self):
        with pytest.raises(SimulationError):
            montecarlo_density_matrix(ring(4), 0.9, 0.9, n_samples=0)

    def test_unknown_site(self):
        with pytest.raises(TopologyError):
            montecarlo_density(ring(4), 9, 0.9, 0.9, n_samples=10)

    def test_per_component_reliability_vectors(self):
        topo = ring(4)
        site_rel = np.array([1.0, 1.0, 0.5, 1.0])
        f = montecarlo_density(topo, 2, site_rel, 1.0, n_samples=8_000, seed=4)
        assert f[0] == pytest.approx(0.5, abs=0.03)


class TestBatchedLabelling:
    """The block-diagonal batched path vs the per-state reference loop."""

    def test_batched_counts_match_perstate_oracle(self):
        from repro.analytic.montecarlo import _chunk_counts
        from repro.rng import as_generator
        from tests.oracles import montecarlo_perstate_counts

        for topo in (ring(7), fully_connected(5), grid(3, 3)):
            site_rel = np.full(topo.n_sites, 0.85)
            link_rel = np.full(topo.n_links, 0.8)
            for seed in range(3):
                batched = _chunk_counts(
                    topo, site_rel, link_rel, 50, as_generator(seed))
                perstate = montecarlo_perstate_counts(
                    topo, site_rel, link_rel, 50, as_generator(seed))
                np.testing.assert_array_equal(batched, perstate)

    def test_worker_count_does_not_change_the_estimate(self):
        """Sharding blocks across processes is bitwise invisible."""
        topo = ring(9)
        serial = montecarlo_density_matrix(
            topo, 0.9, 0.85, n_samples=1_000, seed=11, batch_size=128,
            n_workers=1)
        sharded = montecarlo_density_matrix(
            topo, 0.9, 0.85, n_samples=1_000, seed=11, batch_size=128,
            n_workers=4)
        np.testing.assert_array_equal(serial, sharded)

    def test_batch_size_does_not_change_sample_accounting(self):
        topo = ring(5)
        for batch_size in (1, 7, 64, 1_000):
            matrix = montecarlo_density_matrix(
                topo, 0.9, 0.9, n_samples=123, seed=5, batch_size=batch_size)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_worker_and_batch_arguments(self):
        with pytest.raises(SimulationError):
            montecarlo_density_matrix(ring(4), 0.9, 0.9, n_samples=10,
                                      batch_size=0)
        with pytest.raises(SimulationError):
            montecarlo_density_matrix(ring(4), 0.9, 0.9, n_samples=10,
                                      n_workers=0)

"""The variance-reduced Monte-Carlo estimator (DESIGN.md §13).

Three claims are load-bearing and tested here:

- **Unbiasedness**: stratified density matrices converge to the closed
  forms / exhaustive enumeration the exact engines compute — no
  systematic tilt from the stratification.
- **Exact stratum accounting** (Hypothesis): the Poisson-Binomial
  stratum weights sum to 1 for any failure-probability vector, and
  strata outside the retained set contribute exactly zero mass.
- **Determinism**: the estimator is a pure function of its seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.ring import ring_density_matrix
from repro.analytic.variance import failure_count_weights, stratified_density_matrix
from repro.errors import DensityError, SimulationError
from repro.topology.generators import fully_connected, ring

#: Rows of every returned matrix are proper densities.


def _assert_density_matrix(matrix, topology):
    assert matrix.shape == (topology.n_sites, topology.total_votes + 1)
    assert (matrix >= 0.0).all()
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


class TestFailureCountWeights:
    def test_matches_binomial_for_homogeneous_probs(self):
        from math import comb

        q = 0.2
        weights = failure_count_weights(np.full(5, q))
        expected = [comb(5, k) * q**k * (1 - q) ** (5 - k) for k in range(6)]
        np.testing.assert_allclose(weights, expected, atol=1e-15)

    def test_degenerate_components(self):
        weights = failure_count_weights(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(weights, [0.0, 1.0, 0.0, 0.0])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_weights_sum_to_one(self, probs):
        weights = failure_count_weights(np.array(probs))
        assert weights.shape == (len(probs) + 1,)
        assert (weights >= 0.0).all()
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DensityError, match="1-D"):
            failure_count_weights(np.zeros((2, 2)))
        with pytest.raises(DensityError, match=r"\[0, 1\]"):
            failure_count_weights(np.array([0.5, 1.5]))


class TestStratifiedUnbiasedness:
    def test_converges_to_ring_closed_form(self):
        topology = ring(7)
        exact = ring_density_matrix(topology, 0.9, 0.9)
        estimate = stratified_density_matrix(
            topology, 0.9, 0.9, n_samples=60_000, seed=5)
        _assert_density_matrix(estimate, topology)
        assert np.abs(estimate - exact).max() < 5e-3

    def test_converges_on_complete_graph(self):
        topology = fully_connected(5)
        from repro.analytic.enumeration import enumerate_density_matrix

        exact = enumerate_density_matrix(topology, 0.95, 0.95)
        estimate = stratified_density_matrix(
            topology, 0.95, 0.95, n_samples=60_000, seed=9)
        _assert_density_matrix(estimate, topology)
        assert np.abs(estimate - exact).max() < 5e-3

    def test_seed_deterministic(self):
        one = stratified_density_matrix(ring(7), 0.99, 0.99, n_samples=2_000,
                                        seed=3)
        two = stratified_density_matrix(ring(7), 0.99, 0.99, n_samples=2_000,
                                        seed=3)
        np.testing.assert_array_equal(one, two)

    def test_perfect_reliability_is_exact(self):
        # Only stratum 0 has mass: the estimate IS the deterministic
        # all-up evaluation, regardless of budget.
        topology = ring(7)
        estimate = stratified_density_matrix(topology, 1.0, 1.0,
                                             n_samples=100, seed=0)
        expected = np.zeros((7, topology.total_votes + 1))
        expected[:, topology.total_votes] = 1.0
        np.testing.assert_allclose(estimate, expected, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(SimulationError):
            stratified_density_matrix(ring(7), 0.9, 0.9, n_samples=0)


class TestStratificationPlan:
    def test_plan_reports_budget_and_mass(self):
        matrix, plan = stratified_density_matrix(
            ring(7), 0.99, 0.99, n_samples=4_000, seed=1, return_plan=True)
        _assert_density_matrix(matrix, ring(7))
        np.testing.assert_allclose(plan.weights.sum(), 1.0, atol=1e-12)
        assert plan.retained_mass > 0.999
        assert 0 in plan.exact_strata  # all-up handled deterministically
        assert plan.sampled_states <= 4_000
        assert all(count > 0 for count in plan.allocations.values())

    @given(
        p=st.floats(min_value=0.5, max_value=0.999),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_dropped_strata_contribute_exactly_zero(self, p, seed):
        topology = ring(5)
        matrix, plan = stratified_density_matrix(
            topology, p, p, n_samples=500, seed=seed, return_plan=True)
        _assert_density_matrix(matrix, topology)
        covered = set(plan.exact_strata) | set(plan.allocations)
        m = plan.weights.shape[0] - 1
        dropped_mass = sum(
            plan.weights[k] for k in range(m + 1) if k not in covered)
        np.testing.assert_allclose(
            plan.retained_mass + dropped_mass, 1.0, atol=1e-9)


class TestConditionalTable:
    """The table-driven stratum draw against the per-component oracle.

    ``tests/oracles.py::conditional_failure_masks`` is the sampler as it
    was before the conditional law moved into a per-run table; the two
    must agree bit for bit and leave their generators in the same state.
    """

    HOMOGENEOUS = np.full(9, 0.1)
    #: Every component different, one far less reliable (the bus hub).
    HETEROGENEOUS = np.array([0.45, 0.01, 0.2, 0.04, 0.3, 0.002, 0.11, 0.07])

    @pytest.mark.parametrize("q", [HOMOGENEOUS, HETEROGENEOUS],
                             ids=["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("count", [1, 37])
    def test_bitwise_equal_to_oracle_and_same_stream(self, q, count):
        from repro.analytic.variance import (
            _conditional_failure_masks,
            _conditional_failure_table,
        )
        from repro.rng import as_generator
        from tests.oracles import conditional_failure_masks, suffix_failure_weights

        m = q.shape[0]
        suffix = suffix_failure_weights(q, m)
        cond = _conditional_failure_table(q, m)
        # k = 0 and k = m are all forced moves; 1 and m - 1 mix both.
        for k in (0, 1, 3, m - 1, m):
            table_rng, oracle_rng = as_generator(k), as_generator(k)
            drawn = _conditional_failure_masks(cond, k, count, table_rng)
            expected = conditional_failure_masks(q, k, count, oracle_rng, suffix)
            np.testing.assert_array_equal(drawn, expected)
            assert (drawn.sum(axis=1) == k).all()
            assert table_rng.random() == oracle_rng.random()

    def test_table_narrower_than_the_component_count(self):
        """A run's table stops at its largest sampled stratum."""
        from repro.analytic.variance import (
            _conditional_failure_masks,
            _conditional_failure_table,
        )
        from repro.rng import as_generator
        from tests.oracles import conditional_failure_masks, suffix_failure_weights

        q = self.HETEROGENEOUS
        drawn = _conditional_failure_masks(
            _conditional_failure_table(q, 2), 2, 50, as_generator(8))
        expected = conditional_failure_masks(
            q, 2, 50, as_generator(8), suffix_failure_weights(q, 2))
        np.testing.assert_array_equal(drawn, expected)

    def test_pinned_sampler_bits(self):
        """The stratified sampler, byte for byte (a hash of its output
        since the table-driven draw): the benchmark digest is otherwise
        its only pin."""
        import hashlib

        from repro.topology.generators import paper_topology

        topology = paper_topology(16, n_sites=21)

        def sha(matrix):
            return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()

        assert sha(stratified_density_matrix(
            topology, 0.96, 0.96, n_samples=4_000, seed=24)) == (
            "d470ffad1cd7910532034fdd333126d9cffca1aea394aeb50ca2ecbf39b33bcc")


def test_linkless_topology_through_both_samplers():
    """``n_links == 0``: every site is its own component, so each row is
    Bernoulli(p) on {0, 1} votes; the kernel must not divide by the link
    count on the way."""
    from repro.analytic.montecarlo import montecarlo_density_matrix
    from repro.topology.model import Topology

    topology = Topology(3, [])
    for sampler in (montecarlo_density_matrix, stratified_density_matrix):
        matrix = sampler(topology, 0.9, 0.9, n_samples=4_000, seed=1)
        _assert_density_matrix(matrix, topology)
        np.testing.assert_allclose(matrix[:, 1], 0.9, atol=0.03)

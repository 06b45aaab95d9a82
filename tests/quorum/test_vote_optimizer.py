"""Tests for the vote assignment optimizer."""

import numpy as np
import pytest

from repro.errors import OptimizationError, VoteAssignmentError
from repro.quorum.vote_optimizer import _compositions, optimize_votes
from repro.topology.generators import ring, star
from repro.topology.model import Topology
from tests.oracles import density_matrix_reference


class TestCompositions:
    def test_counts(self):
        from math import comb

        comps = list(_compositions(4, 3))
        assert len(comps) == comb(4 + 2, 2)
        assert all(sum(c) == 4 for c in comps)
        assert all(min(c) >= 0 for c in comps)

    def test_unique(self):
        comps = [tuple(c) for c in _compositions(3, 4)]
        assert len(set(comps)) == len(comps)


class TestHillclimb:
    def test_unreliable_site_loses_votes(self):
        """A 4-site ring where site 3 is nearly always down: the optimizer
        must strip its vote (a vote parked on a dead site is wasted)."""
        topo = ring(4)
        p = np.array([0.95, 0.95, 0.95, 0.05])
        res = optimize_votes(topo, alpha=0.5, p=p, r=0.95,
                             n_samples=1_500, seed=1)
        assert res.votes[3] == 0
        assert res.total_votes == 4

    def test_hub_of_star_attracts_votes(self):
        """On a star, every component contains the hub or is a leaf
        singleton — votes on the hub are maximally useful."""
        topo = star(5, hub=0)
        res = optimize_votes(topo, alpha=0.25, p=0.9, r=0.8,
                             n_samples=1_500, seed=2)
        assert res.votes[0] == max(res.votes)

    def test_beats_or_matches_uniform(self):
        topo = ring(5)
        p = np.array([0.95, 0.95, 0.95, 0.5, 0.5])
        res = optimize_votes(topo, alpha=0.5, p=p, r=0.9,
                             n_samples=1_500, seed=3)
        from repro.quorum.vote_optimizer import _StateSample, availability_of_votes

        sample = _StateSample(topo, p, 0.9, n_samples=1_500, seed=3)
        uniform_value, _ = availability_of_votes(sample, np.ones(5, dtype=np.int64), 0.5)
        assert res.availability >= uniform_value - 1e-9

    def test_result_metadata(self):
        topo = ring(4)
        res = optimize_votes(topo, alpha=0.5, p=0.9, r=0.9,
                             n_samples=500, seed=0)
        assert res.method == "hillclimb"
        assert res.candidates_evaluated >= 1
        assert res.quorum.assignment.total_votes == res.total_votes


class TestExhaustive:
    def test_matches_hillclimb_value_on_tiny_system(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        p = np.array([0.9, 0.6, 0.9])
        ex = optimize_votes(topo, alpha=0.5, p=p, r=0.9, total_votes=3,
                            method="exhaustive", n_samples=1_000, seed=4)
        hc = optimize_votes(topo, alpha=0.5, p=p, r=0.9, total_votes=3,
                            method="hillclimb", n_samples=1_000, seed=4)
        # Same shared sample: hill climbing cannot beat the exhaustive
        # optimum, and on 3 sites it should reach it.
        assert hc.availability == pytest.approx(ex.availability, abs=1e-9)

    def test_exhaustive_guard(self):
        topo = ring(12)
        with pytest.raises(OptimizationError):
            optimize_votes(topo, alpha=0.5, p=0.9, r=0.9, total_votes=24,
                           method="exhaustive", n_samples=10)


class TestValidation:
    def test_alpha_bounds(self):
        with pytest.raises(OptimizationError):
            optimize_votes(ring(3), alpha=2.0, p=0.9, r=0.9, n_samples=10)

    def test_vote_budget_positive(self):
        with pytest.raises(VoteAssignmentError):
            optimize_votes(ring(3), alpha=0.5, p=0.9, r=0.9, total_votes=0,
                           n_samples=10)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_positive(self, n_samples):
        with pytest.raises(OptimizationError, match="n_samples must be positive"):
            optimize_votes(ring(3), alpha=0.5, p=0.9, r=0.9, n_samples=n_samples)

    def test_unknown_method(self):
        with pytest.raises(OptimizationError):
            optimize_votes(ring(3), alpha=0.5, p=0.9, r=0.9,
                           method="quantum", n_samples=10)

    def test_reliability_shape_check(self):
        with pytest.raises(OptimizationError):
            optimize_votes(ring(3), alpha=0.5, p=np.array([0.9, 0.9]), r=0.9,
                           n_samples=10)


class TestVectorizedScoring:
    """The batched scatter-add scorer and the delta scorer must reproduce
    the per-state reference loop of ``tests/oracles.py`` bit for bit
    (DESIGN.md §10) — every intermediate is an exact small integer, so
    there is no tolerance to hide behind."""

    def _sample(self, n_samples=200, seed=11):
        from repro.quorum.vote_optimizer import _StateSample

        topo = ring(6)
        p = np.array([0.9, 0.55, 0.9, 0.7, 0.9, 0.55])
        return _StateSample(topo, p, 0.85, n_samples=n_samples, seed=seed)

    def test_batched_matches_reference_loop(self):
        sample = self._sample()
        rng = np.random.default_rng(0)
        for _ in range(10):
            votes = rng.integers(0, 4, size=6)
            votes[0] = max(votes[0], 1)
            assert np.array_equal(
                sample.density_matrix(votes),
                density_matrix_reference(sample, votes),
            )

    def test_delta_matches_full_rescoring(self):
        sample = self._sample()
        votes = np.array([2, 1, 0, 1, 1, 1])
        counts, bins = sample.vote_counts(votes)
        for a in range(6):
            if votes[a] == 0:
                continue
            for b in range(6):
                if a == b:
                    continue
                moved = votes.copy()
                moved[a] -= 1
                moved[b] += 1
                assert np.array_equal(
                    sample.moved_counts(counts, bins, votes, a, b),
                    sample.vote_counts(moved)[0],
                )

    def test_moving_from_empty_site_rejected(self):
        sample = self._sample()
        votes = np.array([2, 1, 0, 1, 1, 1])
        counts, bins = sample.vote_counts(votes)
        with pytest.raises(OptimizationError):
            sample.moved_counts(counts, bins, votes, 2, 0)

    def test_delta_evaluations_are_counted(self):
        res = optimize_votes(ring(4), alpha=0.5, p=0.9, r=0.9,
                             n_samples=300, seed=0)
        # Initial score plus at least one full sweep of n*(n-1) moves.
        assert res.candidates_evaluated >= 1 + 4 * 3


class TestScoringProperties:
    """Hypothesis: for arbitrary reliability vectors, seeds, and vote
    vectors, batched scoring and delta-scoring reproduce the reference
    loop exactly."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        votes=st.lists(st.integers(min_value=0, max_value=3), min_size=5,
                       max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=5,
                   max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_and_delta_match_reference(self, votes, seed, p):
        from hypothesis import assume

        from repro.quorum.vote_optimizer import _StateSample

        votes = np.asarray(votes, dtype=np.int64)
        assume(votes.sum() > 0)
        sample = _StateSample(ring(5), np.asarray(p), 0.8, n_samples=64,
                              seed=seed)
        assert np.array_equal(
            sample.density_matrix(votes),
            density_matrix_reference(sample, votes),
        )
        counts, bins = sample.vote_counts(votes)
        movable = [a for a in range(5) if votes[a] > 0]
        a = movable[0]
        b = (a + 1) % 5
        moved = votes.copy()
        moved[a] -= 1
        moved[b] += 1
        assert np.array_equal(
            sample.moved_counts(counts, bins, votes, a, b),
            sample.vote_counts(moved)[0],
        )

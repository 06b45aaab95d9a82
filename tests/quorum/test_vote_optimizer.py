"""Tests for the vote assignment optimizer."""

import numpy as np
import pytest

from repro.errors import OptimizationError, VoteAssignmentError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.vote_optimizer import (
    _StateSample,
    availability_of_votes,
    optimize_votes,
)
from repro.topology.generators import ring, ring_with_chords, star
from repro.topology.model import Topology
from tests.oracles import (
    compositions,
    density_matrix_reference,
    exhaustive_votes,
    hillclimb_reference,
)


class TestCompositions:
    def test_counts(self):
        from math import comb

        comps = list(compositions(4, 3))
        assert len(comps) == comb(4 + 2, 2)
        assert all(sum(c) == 4 for c in comps)
        assert all(min(c) >= 0 for c in comps)

    def test_unique(self):
        comps = [tuple(c) for c in compositions(3, 4)]
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
        sample = _StateSample(topo, p, 0.9, n_samples=1_500, seed=3)
        uniform_value, _ = availability_of_votes(sample, np.ones(5, dtype=np.int64), 0.5)
        assert res.availability >= uniform_value - 1e-9

    def test_result_metadata(self):
        topo = ring(4)
        res = optimize_votes(topo, alpha=0.5, p=0.9, r=0.9,
                             n_samples=500, seed=0)
        assert res.candidates_evaluated >= 1
        assert res.quorum.assignment.total_votes == res.total_votes


class TestExhaustive:
    def test_matches_hillclimb_value_on_tiny_system(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        p = np.array([0.9, 0.6, 0.9])
        ex = exhaustive_votes(topo, alpha=0.5, p=p, r=0.9, total_votes=3,
                              n_samples=1_000, seed=4)
        hc = optimize_votes(topo, alpha=0.5, p=p, r=0.9, total_votes=3,
                            n_samples=1_000, seed=4)
        # Same shared sample: hill climbing cannot beat the exhaustive
        # optimum, and on 3 sites it should reach it.
        assert hc.availability == pytest.approx(ex.availability, abs=1e-9)

    def test_exhaustive_guard(self):
        topo = ring(12)
        with pytest.raises(OptimizationError):
            exhaustive_votes(topo, alpha=0.5, p=0.9, r=0.9, total_votes=24,
                             n_samples=10)


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

    def test_reliability_shape_check(self):
        with pytest.raises(OptimizationError):
            optimize_votes(ring(3), alpha=0.5, p=np.array([0.9, 0.9]), r=0.9,
                           n_samples=10)


class TestVectorizedScoring:
    """The batched scatter-add scorer must reproduce the per-state
    reference loop of ``tests/oracles.py`` bit for bit, and the sweep's
    integer counts must be what a full rescoring of each moved vector
    gives (DESIGN.md §10) — every intermediate is an exact small
    integer, so there is no tolerance to hide behind."""

    def _sample(self, n_samples=200, seed=11):
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

    def test_sweep_matches_full_rescoring(self):
        sample = self._sample()
        votes = np.array([2, 1, 0, 1, 1, 1])
        uppers = sample.move_uppers(votes)
        sweep = sample.sweep(votes, 0.5)
        for a, b in _legal_moves(votes):
            moved = _moved(votes, a, b)
            assert np.array_equal(
                uppers[:, a, b], _site_summed_uppers(sample, moved))
            # The sweep is the exact best of the curve; the per-vector
            # optimizer may settle up to its 1e-12 tie tolerance below.
            value, _ = availability_of_votes(sample, moved, 0.5)
            assert value - 1e-13 <= sweep[a, b] <= value + 1e-12 + 1e-13

    def test_row_blocks_do_not_change_the_counts(self, monkeypatch):
        from repro.quorum import vote_optimizer

        sample = self._sample(n_samples=400)
        votes = np.array([2, 1, 0, 1, 1, 1])
        whole = sample.move_uppers(votes)
        assert sample.members.shape[0] > 7
        monkeypatch.setattr(vote_optimizer, "_CHUNK_ROWS", 7)
        assert np.array_equal(sample.move_uppers(votes), whole)

    def test_moving_from_empty_site_rejected(self):
        sample = self._sample()
        votes = np.array([2, 1, 0, 1, 1, 1])
        sweep = sample.sweep(votes, 0.5)
        assert np.isneginf(sweep[2]).all()
        assert np.isneginf(np.diag(sweep)).all()
        legal = np.isfinite(sweep)
        assert legal.sum() == len(_legal_moves(votes))

    def test_every_legal_move_is_counted(self):
        res = optimize_votes(ring(4), alpha=0.5, p=0.9, r=0.9,
                             n_samples=300, seed=0)
        # Initial score plus at least one full sweep of n*(n-1) moves.
        assert res.candidates_evaluated >= 1 + 4 * 3


def _legal_moves(votes):
    n = len(votes)
    return [(a, b) for a in range(n) if votes[a] > 0
            for b in range(n) if b != a]


def _moved(votes, a, b):
    moved = np.array(votes, dtype=np.int64)
    moved[a] -= 1
    moved[b] += 1
    return moved


def _site_summed_uppers(sample, votes):
    """``U[t]`` for ``t = 1..T`` of the site-summed ``vote_counts``."""
    hist = sample.vote_counts(votes).sum(axis=0)
    return np.cumsum(hist[::-1])[::-1][1:]


class TestScoringProperties:
    """Hypothesis: for arbitrary reliability vectors, seeds, and vote
    vectors, batched scoring reproduces the reference loop exactly and
    the sweep's integer histogram of every legal move equals the
    site-sum of ``vote_counts`` of the moved vector."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        votes=st.lists(st.integers(min_value=0, max_value=3), min_size=5,
                       max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5,
                   max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_and_sweep_match_reference(self, votes, seed, p):
        from hypothesis import assume

        votes = np.asarray(votes, dtype=np.int64)
        assume(votes.sum() > 0)
        sample = _StateSample(ring(5), np.asarray(p), 0.8, n_samples=64,
                              seed=seed)
        assert np.array_equal(
            sample.density_matrix(votes),
            density_matrix_reference(sample, votes),
        )
        uppers = sample.move_uppers(votes)
        for a, b in _legal_moves(votes):
            hist = np.diff(-np.r_[uppers[:, a, b], 0.0])
            moved = _moved(votes, a, b)
            assert np.array_equal(hist, sample.vote_counts(moved).sum(axis=0)[1:])


#: The analytic-optimize benchmark's vote search (ring(16), 1 000 states).
E2E_P = np.array([0.95, 0.95, 0.55, 0.95] * 4)


class TestSweepEquivalence:
    """``optimize_votes`` takes exactly the moves of the per-candidate
    climb (``tests/oracles.py::hillclimb_reference``): equal votes,
    quorum, availability and candidate count, with no tolerance."""

    CASES = {
        "e2e-seed3": (ring(16), 0.5, E2E_P, 0.85, None, 1_000, 3),
        "e2e-seed4": (ring(16), 0.5, E2E_P, 0.85, None, 1_000, 4),
        "e2e-seed6": (ring(16), 0.5, E2E_P, 0.85, None, 1_000, 6),
        "ring4-dead-site": (ring(4), 0.5, np.array([0.95, 0.95, 0.95, 0.05]),
                            0.95, None, 1_500, 1),
        "star5": (star(5, hub=0), 0.25, 0.9, 0.8, None, 1_500, 2),
        "fewer-votes-than-sites": (ring(6), 0.5, 0.9, 0.9, 4, 800, 5),
        "two-votes-per-site": (ring(5), 0.7, np.array([0.9, 0.6, 0.9, 0.8, 0.7]),
                               0.9, 10, 800, 6),
        "certain-sites": (ring(5), 0.5, np.array([1.0, 0.0, 0.9, 0.7, 1.0]),
                          0.9, None, 800, 7),
        "one-state": (ring(5), 0.5, 0.9, 0.9, None, 1, 8),
        "repro-votes-default": (ring_with_chords(12, 2), 0.5, 0.95, 0.95, None,
                                2_000, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_candidate_climb(self, case):
        topo, alpha, p, r, total, n_samples, seed = self.CASES[case]
        kwargs = dict(total_votes=total, n_samples=n_samples, seed=seed)
        got = optimize_votes(topo, alpha, p, r, **kwargs)
        want = hillclimb_reference(topo, alpha, p, r, **kwargs)
        assert got.votes == want.votes
        assert got.quorum == want.quorum
        assert got.availability == want.availability
        assert got.candidates_evaluated == want.candidates_evaluated


class TestSweepCost:
    """Counted, not timed: the sweep builds no model per move, and its
    working set stays bounded at 100 sites."""

    def test_e2e_search_builds_at_most_100_models(self, monkeypatch):
        built = []
        post_init = AvailabilityModel.__post_init__

        def counting(model):
            built.append(model)
            post_init(model)

        monkeypatch.setattr(AvailabilityModel, "__post_init__", counting)
        for seed in (3, 6):
            built.clear()
            res = optimize_votes(ring(16), 0.5, E2E_P, 0.85, n_samples=1_000,
                                 seed=seed)
            # The per-candidate climb built one per candidate (1 051).
            assert res.candidates_evaluated == 1_051
            assert len(built) <= 100

    def test_sweep_at_101_sites_peaks_below_64_mib(self):
        import tracemalloc

        n = 101
        p = np.full(n, 0.95)
        p[::3] = 0.55
        sample = _StateSample(ring_with_chords(n, 2), p, 0.95,
                              n_samples=2_000, seed=0)
        votes = np.ones(n, dtype=np.int64)
        tracemalloc.start()
        try:
            sample.sweep(votes, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

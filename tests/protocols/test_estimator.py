"""Unit tests for the on-line density estimator."""

import numpy as np
import pytest

from repro.errors import DensityError
from repro.protocols.estimator import OnlineDensityEstimator


class TestConstruction:
    def test_bad_args(self):
        with pytest.raises(DensityError):
            OnlineDensityEstimator(0, 5)
        with pytest.raises(DensityError):
            OnlineDensityEstimator(3, 0)
        with pytest.raises(DensityError):
            OnlineDensityEstimator(3, 5, forgetting_factor=0.0)
        with pytest.raises(DensityError):
            OnlineDensityEstimator(3, 5, forgetting_factor=1.5)


class TestObserve:
    def test_single_observations(self):
        est = OnlineDensityEstimator(2, 4)
        est.observe(0, 3)
        est.observe(0, 3)
        est.observe(0, 1)
        f = est.density(0)
        assert f[3] == pytest.approx(2 / 3)
        assert f[1] == pytest.approx(1 / 3)

    def test_observe_bounds(self):
        est = OnlineDensityEstimator(2, 4)
        with pytest.raises(DensityError):
            est.observe(2, 0)
        with pytest.raises(DensityError):
            est.observe(0, 5)
        with pytest.raises(DensityError):
            est.observe(0, 2, weight=-1.0)

    def test_observe_all_snapshot(self):
        est = OnlineDensityEstimator(3, 5)
        est.observe_all(np.array([5, 5, 0]), weight=2.0)
        est.observe_all(np.array([3, 5, 0]), weight=1.0)
        f0 = est.density(0)
        assert f0[5] == pytest.approx(2 / 3)
        assert f0[3] == pytest.approx(1 / 3)
        assert est.density(2)[0] == pytest.approx(1.0)

    def test_observe_all_validation(self):
        est = OnlineDensityEstimator(3, 5)
        with pytest.raises(DensityError):
            est.observe_all(np.array([1, 2]))
        with pytest.raises(DensityError):
            est.observe_all(np.array([1, 2, 6]))
        with pytest.raises(DensityError):
            est.observe_all(np.array([1, 2, 3]), weight=-0.5)

    def test_observe_counts(self):
        est = OnlineDensityEstimator(2, 3)
        est.observe_counts(np.array([3, 1]), np.array([4.0, 0.0]))
        est.observe_counts(np.array([2, 1]), np.array([1.0, 5.0]))
        assert est.density(0)[3] == pytest.approx(0.8)
        assert est.density(1)[1] == pytest.approx(1.0)
        assert est.site_weight(1) == pytest.approx(5.0)

    def test_observe_counts_validation(self):
        est = OnlineDensityEstimator(2, 3)
        with pytest.raises(DensityError):
            est.observe_counts(np.array([1, 1]), np.array([1.0]))
        with pytest.raises(DensityError):
            est.observe_counts(np.array([1, 1]), np.array([-1.0, 1.0]))

    def test_duplicate_vote_totals_accumulate(self):
        """np.add.at must accumulate when several sites share a cell."""
        est = OnlineDensityEstimator(3, 2)
        est.observe_counts(np.array([2, 2, 2]), np.array([1.0, 2.0, 3.0]))
        assert est.total_weight == pytest.approx(6.0)


class TestObserveEpochs:
    """A block of snapshots is bitwise the row-by-row calls, oldest first."""

    N_SITES, TOTAL_VOTES = 4, 6

    def block(self, k, seed=5):
        rng = np.random.default_rng(seed)
        totals = rng.integers(0, self.TOTAL_VOTES + 1, size=(k, self.N_SITES))
        return totals, rng.random(k) * 10.0, rng.random((k, self.N_SITES)) * 1e3

    def pair(self, forgetting_factor):
        return (
            OnlineDensityEstimator(self.N_SITES, self.TOTAL_VOTES, forgetting_factor),
            OnlineDensityEstimator(self.N_SITES, self.TOTAL_VOTES, forgetting_factor),
        )

    @pytest.mark.parametrize("forgetting_factor", [1.0, 0.9])
    def test_per_epoch_weights_equal_sequential_observe_all(self, forgetting_factor):
        totals, durations, _ = self.block(40)
        block, rows = self.pair(forgetting_factor)
        # Two blocks: the second must continue from the first's carry.
        block.observe_epochs(totals[:25], durations[:25])
        block.observe_epochs(totals[25:], durations[25:])
        for row, duration in zip(totals, durations):
            rows.observe_all(row, weight=duration)
        assert np.array_equal(block._weights, rows._weights)

    @pytest.mark.parametrize("forgetting_factor", [1.0, 0.9])
    def test_per_site_weights_equal_sequential_observe_counts(self, forgetting_factor):
        totals, _, counts = self.block(40)
        block, rows = self.pair(forgetting_factor)
        block.observe_epochs(totals[:25], counts[:25])
        block.observe_epochs(totals[25:], counts[25:])
        for row, row_counts in zip(totals, counts):
            rows.observe_counts(row, row_counts)
        assert np.array_equal(block._weights, rows._weights)

    @pytest.mark.parametrize("forgetting_factor", [1.0, 0.9])
    def test_empty_block_changes_nothing(self, forgetting_factor):
        est = OnlineDensityEstimator(self.N_SITES, self.TOTAL_VOTES, forgetting_factor)
        est.observe(0, 2, weight=3.0)
        before = est._weights.copy()
        est.observe_epochs(np.empty((0, self.N_SITES), dtype=np.int64), np.empty(0))
        est.observe_epochs(np.empty((0, self.N_SITES), dtype=np.int64),
                           np.empty((0, self.N_SITES)))
        assert np.array_equal(est._weights, before)

    @pytest.mark.parametrize("bad_totals", [-1, 7])
    def test_rejects_out_of_range_totals_and_leaves_the_block_out(self, bad_totals):
        totals, durations, counts = self.block(5)
        totals[3, 1] = bad_totals
        est = OnlineDensityEstimator(self.N_SITES, self.TOTAL_VOTES)
        for weights in (durations, counts):
            with pytest.raises(DensityError):
                est.observe_epochs(totals, weights)
        assert est.total_weight == 0.0

    def test_rejects_negative_weights(self):
        totals, durations, counts = self.block(5)
        durations[2] = -1e-9
        counts[4, 0] = -1.0
        est = OnlineDensityEstimator(self.N_SITES, self.TOTAL_VOTES)
        for weights in (durations, counts):
            with pytest.raises(DensityError):
                est.observe_epochs(totals, weights)
        assert est.total_weight == 0.0

    def test_rejects_wrong_shapes(self):
        totals, durations, counts = self.block(5)
        est = OnlineDensityEstimator(self.N_SITES, self.TOTAL_VOTES)
        for bad_totals, weights in (
            (totals[0], durations),               # one row, not a block
            (totals[:, :3], durations),           # too few sites
            (totals, durations[:4]),              # one weight short
            (totals, counts[:, :3]),              # per-site weights, too few sites
            (totals, counts.T),
            (totals, 1.0),                        # a scalar is observe_all's job
        ):
            with pytest.raises(DensityError):
                est.observe_epochs(bad_totals, weights)


class TestReadout:
    def test_density_requires_observation(self):
        est = OnlineDensityEstimator(2, 3)
        with pytest.raises(DensityError):
            est.density(0)

    def test_density_matrix_requires_full_coverage(self):
        est = OnlineDensityEstimator(2, 3)
        est.observe(0, 1)
        with pytest.raises(DensityError):
            est.density_matrix()
        est.observe(1, 2)
        matrix = est.density_matrix()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_unknown_site(self):
        est = OnlineDensityEstimator(2, 3)
        with pytest.raises(DensityError):
            est.density(5)

    def test_reset(self):
        est = OnlineDensityEstimator(2, 3)
        est.observe(0, 1)
        est.reset()
        assert est.total_weight == 0.0


class TestForgetting:
    def test_forgetting_tracks_regime_change(self):
        fast = OnlineDensityEstimator(1, 4, forgetting_factor=0.5)
        slow = OnlineDensityEstimator(1, 4, forgetting_factor=1.0)
        for _ in range(50):
            fast.observe(0, 4)
            slow.observe(0, 4)
        for _ in range(10):
            fast.observe(0, 1)
            slow.observe(0, 1)
        # The forgetting estimator has essentially converged to the new
        # regime; the non-forgetting one is still dominated by history.
        assert fast.density(0)[1] > 0.95
        assert slow.density(0)[1] < 0.25

    def test_no_decay_when_factor_one(self):
        est = OnlineDensityEstimator(1, 2)
        est.observe(0, 1)
        est.observe(0, 2)
        assert est.total_weight == pytest.approx(2.0)


class TestMerge:
    def test_merge_combines_weights(self):
        a = OnlineDensityEstimator(2, 3)
        b = OnlineDensityEstimator(2, 3)
        a.observe(0, 1)
        b.observe(0, 3)
        b.observe(1, 2)
        a.merge(b)
        assert a.density(0)[1] == pytest.approx(0.5)
        assert a.density(0)[3] == pytest.approx(0.5)
        assert a.site_weight(1) == pytest.approx(1.0)

    def test_merge_shape_mismatch(self):
        a = OnlineDensityEstimator(2, 3)
        b = OnlineDensityEstimator(2, 4)
        with pytest.raises(DensityError):
            a.merge(b)

    def test_repr(self):
        est = OnlineDensityEstimator(2, 3)
        assert "OnlineDensityEstimator" in repr(est)

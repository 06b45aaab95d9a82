"""Unit tests for the access workloads."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.workload import AccessWorkload


class TestConstructors:
    def test_uniform(self):
        w = AccessWorkload.uniform(10, alpha=0.5)
        np.testing.assert_allclose(w.read_weights, 0.1)
        np.testing.assert_allclose(w.write_weights, 0.1)
        assert w.aggregate_rate == 10.0

    def test_alpha_bounds(self):
        with pytest.raises(SimulationError):
            AccessWorkload.uniform(5, alpha=1.1)

    def test_zipf_weights_decreasing(self):
        w = AccessWorkload.zipf(6, alpha=0.5, exponent=1.2)
        assert (np.diff(w.read_weights) < 0).all()
        assert w.read_weights.sum() == pytest.approx(1.0)

    def test_zipf_exponent_zero_is_uniform(self):
        w = AccessWorkload.zipf(5, alpha=0.5, exponent=0.0)
        np.testing.assert_allclose(w.read_weights, 0.2)

    def test_hotspot(self):
        w = AccessWorkload.hotspot(10, 0.5, hot_sites=[0, 1], hot_fraction=0.8)
        assert w.read_weights[0] == pytest.approx(0.4)
        assert w.read_weights[5] == pytest.approx(0.2 / 8)

    def test_hotspot_validation(self):
        with pytest.raises(SimulationError):
            AccessWorkload.hotspot(5, 0.5, hot_sites=[])
        with pytest.raises(SimulationError):
            AccessWorkload.hotspot(5, 0.5, hot_sites=[7])
        with pytest.raises(SimulationError):
            AccessWorkload.hotspot(5, 0.5, hot_sites=list(range(5)))
        with pytest.raises(SimulationError):
            AccessWorkload.hotspot(5, 0.5, hot_sites=[0], hot_fraction=1.0)

    def test_distinct_read_write(self):
        w = AccessWorkload.with_distinct_read_write(
            0.6, read_weights=[1.0, 0.0], write_weights=[0.0, 1.0]
        )
        assert w.read_weights[0] == 1.0
        assert w.write_weights[1] == 1.0

    def test_weights_normalized(self):
        w = AccessWorkload(3, 0.5, np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, 2.0]))
        assert w.read_weights.sum() == pytest.approx(1.0)
        assert w.read_weights[0] == pytest.approx(0.5)

    def test_negative_weights_rejected(self):
        with pytest.raises(SimulationError):
            AccessWorkload(2, 0.5, np.array([-1.0, 2.0]), np.array([0.5, 0.5]))

    def test_with_alpha(self):
        w = AccessWorkload.uniform(4, 0.25)
        w2 = w.with_alpha(0.75)
        assert w2.alpha == 0.75
        np.testing.assert_array_equal(w.read_weights, w2.read_weights)


class TestSampling:
    def test_sample_epoch_counts(self):
        w = AccessWorkload.uniform(5, alpha=0.5, rate_per_site=2.0)
        rng = np.random.default_rng(0)
        reads, writes = w.sample_epoch(100.0, rng)
        total = reads.sum() + writes.sum()
        # E[total] = 5 sites * 2.0 * 100 = 1000; allow 5 sigma.
        assert abs(total - 1000) < 5 * np.sqrt(1000)

    def test_sample_epoch_alpha_split(self):
        w = AccessWorkload.uniform(4, alpha=0.25)
        rng = np.random.default_rng(1)
        reads, writes = w.sample_epoch(500.0, rng)
        frac = reads.sum() / (reads.sum() + writes.sum())
        assert frac == pytest.approx(0.25, abs=0.03)

    def test_sample_epoch_zero_duration(self):
        w = AccessWorkload.uniform(3, alpha=0.5)
        rng = np.random.default_rng(2)
        reads, writes = w.sample_epoch(0.0, rng)
        assert reads.sum() == 0 and writes.sum() == 0

    def test_sample_negative_duration(self):
        w = AccessWorkload.uniform(3, alpha=0.5)
        with pytest.raises(SimulationError):
            w.sample_epoch(-1.0, np.random.default_rng(0))

    def test_skew_shows_up_in_samples(self):
        w = AccessWorkload.hotspot(5, 0.5, hot_sites=[0], hot_fraction=0.9)
        rng = np.random.default_rng(3)
        reads, writes = w.sample_epoch(400.0, rng)
        per_site = reads + writes
        assert per_site[0] > per_site[1:].sum()

    def test_expected_epoch(self):
        w = AccessWorkload.uniform(4, alpha=0.75, rate_per_site=1.0)
        reads, writes = w.expected_epoch(10.0)
        assert reads.sum() == pytest.approx(30.0)
        assert writes.sum() == pytest.approx(10.0)
        np.testing.assert_allclose(reads, 7.5)

    def test_expected_matches_sample_mean(self):
        w = AccessWorkload.zipf(6, alpha=0.4, exponent=1.0)
        rng = np.random.default_rng(4)
        acc_r = np.zeros(6)
        acc_w = np.zeros(6)
        n = 300
        for _ in range(n):
            r, wr = w.sample_epoch(5.0, rng)
            acc_r += r
            acc_w += wr
        exp_r, exp_w = w.expected_epoch(5.0)
        np.testing.assert_allclose(acc_r / n, exp_r, rtol=0.15)
        np.testing.assert_allclose(acc_w / n, exp_w, rtol=0.2)


class TestExpectedEpochs:
    """The block form is bitwise the per-epoch form, row for row."""

    # Durations whose products round differently under another association:
    # (rate * d) * alpha != rate * (d * alpha) for most of these.
    DURATIONS = np.array([0.1, 1.0 / 3.0, 0.0, 7.3, 1e-9, 123.456, 0.7, 2.0 / 7.0])

    @staticmethod
    def workload(alpha):
        return AccessWorkload.with_distinct_read_write(
            alpha, np.arange(1.0, 8.0), np.arange(1.0, 8.0)[::-1] ** 1.5,
            rate_per_site=1.0 / 3.0,
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_rows_are_bitwise_expected_epoch(self, alpha):
        w = self.workload(alpha)
        reads, writes = w.expected_epochs(self.DURATIONS)
        assert reads.shape == writes.shape == (self.DURATIONS.size, 7)
        assert reads.dtype == writes.dtype == np.float64
        for i, d in enumerate(self.DURATIONS.tolist()):
            want_reads, want_writes = w.expected_epoch(d)
            assert np.array_equal(reads[i], want_reads), (alpha, d)
            assert np.array_equal(writes[i], want_writes), (alpha, d)
        # The zero duration is a row of zeros, not a skipped row.
        assert not reads[2].any() and not writes[2].any()

    def test_empty_block(self):
        reads, writes = self.workload(0.3).expected_epochs(np.empty(0))
        assert reads.shape == writes.shape == (0, 7)

    def test_negative_duration_rejects_the_whole_block(self):
        with pytest.raises(SimulationError):
            self.workload(0.3).expected_epochs(np.array([1.0, -1e-12, 2.0]))

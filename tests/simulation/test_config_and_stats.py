"""Unit tests for SimulationConfig and the batch statistics."""

from math import sqrt

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.config import SimulationConfig
from repro.simulation.stats import (
    BatchStatistics,
    confidence_interval,
    student_t_half_width,
)
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring


class TestSimulationConfig:
    def test_paper_like_derivation(self):
        cfg = SimulationConfig.paper_like(ring(10), alpha=0.5)
        assert cfg.mean_time_to_failure == pytest.approx(128.0)
        assert cfg.component_reliability == pytest.approx(0.96)
        assert cfg.workload.alpha == 0.5

    def test_paper_like_custom_rho(self):
        cfg = SimulationConfig.paper_like(ring(5), alpha=0.5, rho=1 / 64, reliability=0.9)
        assert cfg.mean_time_to_failure == pytest.approx(64.0)
        assert cfg.component_reliability == pytest.approx(0.9)

    def test_time_horizons(self):
        cfg = SimulationConfig.paper_like(
            ring(10), alpha=0.5, warmup_accesses=100, accesses_per_batch=1000
        )
        assert cfg.warmup_time == pytest.approx(10.0)   # 100 / (10 * 1.0)
        assert cfg.batch_time == pytest.approx(100.0)

    def test_workload_topology_mismatch(self):
        with pytest.raises(SimulationError):
            SimulationConfig(ring(5), AccessWorkload.uniform(4, 0.5))

    def test_validation(self):
        topo = ring(5)
        wl = AccessWorkload.uniform(5, 0.5)
        with pytest.raises(SimulationError):
            SimulationConfig(topo, wl, mean_time_to_failure=-1.0)
        with pytest.raises(SimulationError):
            SimulationConfig(topo, wl, warmup_accesses=-5)
        with pytest.raises(SimulationError):
            SimulationConfig(topo, wl, accesses_per_batch=0)
        with pytest.raises(SimulationError):
            SimulationConfig(topo, wl, n_batches=0)
        with pytest.raises(SimulationError):
            SimulationConfig(topo, wl, accounting="magic")

    @pytest.mark.parametrize("bad", [
        float("nan"), np.array([1.0] * 9 + [np.nan]), 0.0, np.zeros(10),
    ])
    def test_nan_and_non_positive_mean_times_are_rejected(self, bad):
        # NaN compares false to ``<= 0``: it used to validate and then give
        # a silently empty batch (every event at time NaN).
        topo = ring(5)
        wl = AccessWorkload.uniform(5, 0.5)
        with pytest.raises(SimulationError, match="mean_time_to_failure"):
            SimulationConfig(topo, wl, mean_time_to_failure=bad)
        with pytest.raises(SimulationError, match="mean_time_to_repair"):
            SimulationConfig(topo, wl, mean_time_to_repair=bad)

    def test_infinite_mean_times_validate(self):
        SimulationConfig(ring(5), AccessWorkload.uniform(5, 0.5),
                         mean_time_to_failure=float("inf"))

    def test_with_helpers(self):
        cfg = SimulationConfig.paper_like(ring(5), alpha=0.25)
        assert cfg.with_alpha(0.75).workload.alpha == 0.75
        assert cfg.with_accounting("expected").accounting == "expected"
        assert cfg.with_seed(9).seed == 9
        assert cfg.workload.alpha == 0.25  # original frozen


class TestStudentT:
    def test_single_value_zero_width(self):
        assert student_t_half_width([0.5]) == 0.0

    def test_identical_values_zero_width(self):
        assert student_t_half_width([0.5, 0.5, 0.5]) == 0.0

    def test_known_half_width(self):
        # n=4, sd=1, sem=0.5, t(.975, 3) = 3.1824.
        values = [0.0, 0.0, 2.0, 2.0]
        sd = np.std(values, ddof=1)
        expected = 3.182446 * sd / 2.0
        assert student_t_half_width(values) == pytest.approx(expected, rel=1e-4)

    def test_bitwise_equal_to_scipy_stats_oracle(self):
        # The oracle lives here: production code reads the quantile from
        # scipy.special and never imports scipy.stats (import contract).
        from scipy.stats import t as student_t

        rng = np.random.default_rng(11)
        for n in range(2, 61):
            values = rng.normal(0.5, 0.05, size=n)
            sem = float(values.std(ddof=1)) / sqrt(n)
            for confidence in (0.8, 0.9, 0.95, 0.99):
                oracle = float(student_t.ppf(0.5 + confidence / 2.0, df=n - 1)) * sem
                assert student_t_half_width(values, confidence) == oracle

    def test_pinned_t_quantiles(self):
        from scipy.special import stdtrit

        assert float(stdtrit(4, 0.975)) == 2.7764451051977934
        assert float(stdtrit(1, 0.975)) == 12.706204736174694
        assert student_t_half_width([0.0, 2.0]) == 12.706204736174694  # sem = 1

    def test_more_batches_tighter(self):
        rng = np.random.default_rng(0)
        few = rng.normal(0.5, 0.05, size=4)
        many = rng.normal(0.5, 0.05, size=16)
        assert student_t_half_width(many) < student_t_half_width(few)

    def test_confidence_interval_contains_mean(self):
        mean, lo, hi = confidence_interval([0.4, 0.5, 0.6])
        assert lo < mean < hi
        assert mean == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(SimulationError):
            student_t_half_width([])
        with pytest.raises(SimulationError):
            student_t_half_width([0.5], confidence=1.0)


class TestBatchStatistics:
    def test_basic(self):
        stats = BatchStatistics("acc", (0.4, 0.5, 0.6))
        assert stats.mean == pytest.approx(0.5)
        assert stats.n_batches == 3
        lo, hi = stats.interval
        assert lo < 0.5 < hi

    def test_meets_precision(self):
        tight = BatchStatistics("acc", (0.5, 0.5001, 0.4999))
        loose = BatchStatistics("acc", (0.1, 0.9))
        assert tight.meets_precision(0.01)
        assert not loose.meets_precision(0.01)

    def test_single_batch_never_meets_precision(self):
        assert not BatchStatistics("acc", (0.5,)).meets_precision(1.0)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            BatchStatistics("acc", ())

    def test_str_rendering(self):
        s = str(BatchStatistics("acc", (0.4, 0.6)))
        assert "acc" in s and "95%" in s and "2 batches" in s

"""Tests for the reliability sweeps."""

import numpy as np
import pytest

from repro.errors import DensityError, OptimizationError
from repro.experiments.sweeps import (
    SweepPoint,
    find_majority_crossover,
    reliability_sweep,
)


class TestReliabilitySweep:
    def test_point_fields(self):
        points = reliability_sweep("complete", 15, 0.5, [0.9])
        assert len(points) == 1
        p = points[0]
        assert p.reliability == 0.9
        assert 1 <= p.optimal_read_quorum <= 7
        assert p.optimal_availability >= p.availability_at_majority - 1e-12
        assert p.optimal_availability >= p.availability_at_rowa - 1e-12

    def test_optimal_availability_increases_with_reliability(self):
        points = reliability_sweep("complete", 21, 0.5, np.linspace(0.6, 0.99, 8))
        values = [p.optimal_availability for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_ring_read_heavy_prefers_rowa_at_every_reliability(self):
        points = reliability_sweep("ring", 101, 0.9, [0.7, 0.9, 0.99])
        for p in points:
            assert p.availability_at_majority <= p.availability_at_rowa

    def test_complete_write_heavy_prefers_majority_when_reliable(self):
        points = reliability_sweep("complete", 31, 0.1, [0.95, 0.99])
        for p in points:
            assert p.availability_at_majority > p.availability_at_rowa

    def test_unreliable_links_erode_majority_advantage(self):
        """On a complete graph at low alpha, dropping reliability far
        enough makes even majority components rare."""
        points = reliability_sweep("complete", 21, 0.25, [0.5, 0.99])
        assert (
            points[0].availability_at_majority
            < points[1].availability_at_majority
        )

    def test_validation(self):
        with pytest.raises(OptimizationError):
            reliability_sweep("torus", 9, 0.5, [0.9])
        with pytest.raises(OptimizationError):
            reliability_sweep("ring", 9, 1.5, [0.9])
        # The closed form validates the reliability itself.
        with pytest.raises(DensityError, match="site reliability"):
            reliability_sweep("ring", 9, 0.5, [1.5])


class TestCrossover:
    def test_complete_graph_crossover_exists_at_high_alpha(self):
        """On a dense network at alpha = .8, majority wins when reliable
        (its write term is intact and reads barely suffer) but ROWA wins
        when components are flaky (reads-at-one-site degrade gracefully):
        a crossover must exist."""
        crossover = find_majority_crossover("complete", 21, 0.8)
        assert crossover is not None
        assert 0.5 < crossover < 0.999
        # Verify the sign change around it.
        lo = reliability_sweep("complete", 21, 0.8, [crossover - 0.05])[0]
        hi = reliability_sweep("complete", 21, 0.8, [crossover + 0.05])[0]
        assert lo.availability_at_majority <= lo.availability_at_rowa
        assert hi.availability_at_majority > hi.availability_at_rowa

    def test_complete_graph_mid_alpha_majority_dominates(self):
        """At alpha = .5 the write-all term is fatal for ROWA at every
        reliability in the bracket — majority dominates, no crossover."""
        assert find_majority_crossover("complete", 21, 0.5) is None

    def test_ring_pure_reads_no_crossover(self):
        # At alpha = 1 the curve is R(q_r), monotone in q_r: ROWA wins at
        # every reliability. (At alpha = .9 a genuine crossover appears
        # near reliability .998, where a 101-ring is almost never cut.)
        assert find_majority_crossover("ring", 101, 1.0) is None
        crossover = find_majority_crossover("ring", 101, 0.9)
        assert crossover is not None and crossover > 0.99

    def test_alpha_zero_majority_always_wins_on_complete(self):
        # At alpha = 0, ROWA means write-all: majority dominates over the
        # whole bracket, so no crossover.
        assert find_majority_crossover("complete", 21, 0.0, low=0.6) is None

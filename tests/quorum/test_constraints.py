"""Unit tests for the section 5.4 write-constraint machinery."""

import numpy as np
import pytest

from repro.analytic.complete import complete_density
from repro.analytic.ring import ring_density
from repro.errors import OptimizationError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.constraints import (
    feasible_read_quorums,
    optimize_with_write_floor,
    weighted_availability,
    weighted_availability_curve,
)
from repro.quorum.optimizer import optimal_read_quorum


def model_from(density):
    return AvailabilityModel(density, density)


class TestWeightedAvailability:
    def test_omega_one_recovers_plain(self):
        model = model_from(complete_density(10, 0.9, 0.8))
        for q in (1, 3, 5):
            assert float(weighted_availability(model, 1.0, 0.5, q)) == pytest.approx(
                float(model.availability(0.5, q))
            )

    def test_omega_zero_is_reads_only(self):
        model = model_from(complete_density(10, 0.9, 0.8))
        assert float(weighted_availability(model, 0.0, 0.5, 2)) == pytest.approx(
            0.5 * float(model.read_availability(2))
        )

    def test_large_omega_shifts_optimum_toward_majority(self):
        f = ring_density(31, 0.96, 0.96)
        model = model_from(f)
        plain = weighted_availability_curve(model, 1.0, 0.9)
        boosted = weighted_availability_curve(model, 10.0, 0.9)
        assert int(np.argmax(boosted)) >= int(np.argmax(plain))

    def test_negative_omega_rejected(self):
        model = model_from(complete_density(6, 0.9, 0.9))
        with pytest.raises(OptimizationError):
            weighted_availability(model, -1.0, 0.5, 1)

    def test_curve_shape(self):
        model = model_from(complete_density(12, 0.9, 0.9))
        assert weighted_availability_curve(model, 2.0, 0.5).shape == (6,)


class TestFeasibleQuorums:
    def test_zero_floor_everything_feasible(self):
        model = model_from(ring_density(21, 0.96, 0.96))
        np.testing.assert_array_equal(
            feasible_read_quorums(model, 0.0), model.feasible_read_quorums()
        )

    def test_feasible_set_is_a_suffix(self):
        model = model_from(ring_density(31, 0.96, 0.96))
        feasible = feasible_read_quorums(model, 0.2)
        if feasible.size:
            expected = np.arange(feasible[0], model.max_read_quorum + 1)
            np.testing.assert_array_equal(feasible, expected)

    def test_impossible_floor_empty(self):
        model = model_from(ring_density(21, 0.5, 0.5))
        assert feasible_read_quorums(model, 0.999).size == 0

    def test_floor_bounds(self):
        model = model_from(complete_density(6, 0.9, 0.9))
        with pytest.raises(OptimizationError):
            feasible_read_quorums(model, 1.5)


class TestOptimizeWithWriteFloor:
    def test_zero_floor_matches_unconstrained(self):
        model = model_from(ring_density(31, 0.96, 0.96))
        constrained = optimize_with_write_floor(model, 0.75, 0.0)
        unconstrained = optimal_read_quorum(model, 0.75)
        assert constrained.read_quorum == unconstrained.read_quorum
        assert constrained.availability == pytest.approx(unconstrained.availability)

    def test_floor_is_respected(self):
        model = model_from(ring_density(51, 0.96, 0.96))
        res = optimize_with_write_floor(model, 0.75, 0.2)
        write = float(np.asarray(model.write_availability_at(res.read_quorum)))
        assert write >= 0.2

    def test_constraint_costs_availability(self):
        model = model_from(ring_density(51, 0.96, 0.96))
        free = optimal_read_quorum(model, 0.9).availability
        constrained = optimize_with_write_floor(model, 0.9, 0.3).availability
        assert constrained <= free + 1e-12

    def test_binding_constraint_picks_first_feasible_when_monotone(self):
        # On a ring at high alpha the availability curve decreases in q_r,
        # so the constrained optimum is the smallest feasible quorum —
        # exactly the paper's q_r = 28 argument.
        model = model_from(ring_density(51, 0.96, 0.96))
        res = optimize_with_write_floor(model, 0.9, 0.25)
        feasible = feasible_read_quorums(model, 0.25)
        assert res.read_quorum == int(feasible[0])

    def test_infeasible_floor_raises_with_guidance(self):
        model = model_from(ring_density(21, 0.5, 0.5))
        with pytest.raises(OptimizationError, match="best achievable"):
            optimize_with_write_floor(model, 0.5, 0.999)

    def test_alpha_validated(self):
        model = model_from(complete_density(10, 0.9, 0.9))
        with pytest.raises(OptimizationError):
            optimize_with_write_floor(model, 1.2, 0.1)

"""Unit tests for the Figure-1 availability algebra."""

import cProfile
import pstats

import numpy as np
import pytest

from repro.analytic.complete import complete_density
from repro.errors import DensityError, QuorumConstraintError
from repro.quorum.availability import (
    AvailabilityModel,
    availability,
    availability_curve,
    read_availability,
    write_availability,
)


@pytest.fixture
def simple_density():
    # T = 4; hand-computable.
    return np.array([0.1, 0.2, 0.3, 0.2, 0.2])


class TestCumulativeAvailabilities:
    def test_read_availability_by_hand(self, simple_density):
        assert read_availability(simple_density, 1) == pytest.approx(0.9)
        assert read_availability(simple_density, 2) == pytest.approx(0.7)
        assert read_availability(simple_density, 4) == pytest.approx(0.2)

    def test_write_availability_by_hand(self, simple_density):
        assert write_availability(simple_density, 3) == pytest.approx(0.4)

    def test_vectorized_over_quorums(self, simple_density):
        out = read_availability(simple_density, np.array([1, 2, 3, 4]))
        np.testing.assert_allclose(out, [0.9, 0.7, 0.4, 0.2])

    def test_quorum_bounds(self, simple_density):
        with pytest.raises(QuorumConstraintError):
            read_availability(simple_density, 0)
        with pytest.raises(QuorumConstraintError):
            read_availability(simple_density, 5)

    def test_monotone_decreasing_in_quorum(self):
        f = complete_density(12, 0.9, 0.8)
        vals = read_availability(f, np.arange(1, 13))
        assert (np.diff(vals) <= 1e-12).all()


class TestAvailabilityFunction:
    def test_alpha_one_is_read_availability(self, simple_density):
        a = availability(1.0, simple_density, simple_density, 2)
        assert a == pytest.approx(read_availability(simple_density, 2))

    def test_alpha_zero_is_write_availability(self, simple_density):
        a = availability(0.0, simple_density, simple_density, 2)
        # q_w = T - q_r + 1 = 3
        assert a == pytest.approx(write_availability(simple_density, 3))

    def test_convex_combination(self, simple_density):
        a25 = availability(0.25, simple_density, simple_density, 2)
        r = read_availability(simple_density, 2)
        w = write_availability(simple_density, 3)
        assert a25 == pytest.approx(0.25 * r + 0.75 * w)

    def test_distinct_read_write_densities(self):
        r = np.array([0.0, 0.0, 1.0])
        w = np.array([0.5, 0.5, 0.0])
        # T=2, q_r=1, q_w=2: R(1)=1, W(2)=0.
        assert availability(0.5, r, w, 1) == pytest.approx(0.5)

    def test_alpha_out_of_range(self, simple_density):
        with pytest.raises(QuorumConstraintError):
            availability(1.5, simple_density, simple_density, 1)

    def test_mismatched_density_lengths(self):
        with pytest.raises(DensityError):
            availability(0.5, np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]), 1)

    def test_curve_shape(self, simple_density):
        curve = availability_curve(0.5, simple_density, simple_density)
        assert curve.shape == (2,)  # q_r in {1, 2} for T = 4

    def test_curve_values_match_pointwise(self, simple_density):
        curve = availability_curve(0.75, simple_density, simple_density)
        for i, q in enumerate(range(1, 3)):
            assert curve[i] == pytest.approx(
                availability(0.75, simple_density, simple_density, q)
            )


class TestAvailabilityModel:
    def test_from_density_matrix_uniform(self):
        matrix = np.array([[0.2, 0.8, 0.0], [0.0, 0.4, 0.6]])
        model = AvailabilityModel.from_density_matrix(matrix)
        np.testing.assert_allclose(model.read_density, [0.1, 0.6, 0.3])
        assert model.read_density is model.write_density or np.allclose(
            model.read_density, model.write_density
        )

    def test_from_density_matrix_weighted(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = AvailabilityModel.from_density_matrix(
            matrix,
            read_weights=np.array([1.0, 0.0]),
            write_weights=np.array([0.0, 1.0]),
        )
        np.testing.assert_allclose(model.read_density, [1.0, 0.0])
        np.testing.assert_allclose(model.write_density, [0.0, 1.0])

    def test_total_votes_and_max_quorum(self, simple_density):
        model = AvailabilityModel(simple_density, simple_density)
        assert model.total_votes == 4
        assert model.max_read_quorum == 2
        np.testing.assert_array_equal(model.feasible_read_quorums(), [1, 2])

    def test_write_availability_at_is_alpha_zero_curve(self, simple_density):
        model = AvailabilityModel(simple_density, simple_density)
        quorums = model.feasible_read_quorums()
        np.testing.assert_allclose(
            np.asarray(model.write_availability_at(quorums)),
            model.curve(0.0),
        )

    def test_write_availability_nondecreasing_in_read_quorum(self):
        f = complete_density(20, 0.9, 0.7)
        model = AvailabilityModel(f, f)
        w = np.asarray(model.write_availability_at(model.feasible_read_quorums()))
        assert (np.diff(w) >= -1e-12).all()

    def test_assignment_materialization(self, simple_density):
        model = AvailabilityModel(simple_density, simple_density)
        qa = model.assignment(2)
        assert (qa.read_quorum, qa.write_quorum) == (2, 3)

    def test_densities_frozen(self, simple_density):
        model = AvailabilityModel(simple_density, simple_density)
        with pytest.raises(ValueError):
            model.read_density[0] = 0.5

    def test_invalid_density_rejected(self):
        with pytest.raises(DensityError):
            AvailabilityModel(np.array([0.5, 0.4]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("seed", range(8))
    def test_answers_equal_module_functions_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 80))
        r, w = rng.dirichlet(np.ones(T + 1)), rng.dirichlet(np.ones(T + 1))
        model = AvailabilityModel(r, w)
        quorums = model.feasible_read_quorums()
        for alpha in (0.0, float(rng.random()), 1.0):
            np.testing.assert_array_equal(
                model.curve(alpha), availability_curve(alpha, r, w))
            for q in (1, int(quorums[-1]), quorums):
                got = model.availability(alpha, q)
                want = availability(alpha, r, w, q)
                assert type(got) is type(want)
                np.testing.assert_array_equal(got, want)
        for q in (1, T, np.arange(1, T + 1)):
            np.testing.assert_array_equal(
                model.read_availability(q), read_availability(r, q))
            q_w = T - np.asarray(q) + 1
            np.testing.assert_array_equal(
                model.write_availability_at(q), write_availability(w, q_w))
        with pytest.raises(QuorumConstraintError):
            model.read_availability(T + 1)
        with pytest.raises(QuorumConstraintError):
            model.write_availability_at(0)
        with pytest.raises(QuorumConstraintError):
            model.curve(1.5)

    def test_curve_is_a_lookup_without_validation(self):
        f = complete_density(30, 0.9, 0.8)
        model = AvailabilityModel(f, f)
        profiler = cProfile.Profile()
        profiler.enable()
        model.curve(0.5)
        profiler.disable()
        called = {func for (_, _, func) in pstats.Stats(profiler).stats}
        assert "validate_density" not in called
        assert "upper_cumulative" not in called


class TestPaperEdgeIdentities:
    """Section 5.3's two structural observations, checked analytically."""

    def test_availability_at_qr1_is_p_alpha_plus_write_tail(self):
        # R(1) = P(site up) = p, so alpha's read part contributes p*alpha.
        p = 0.96
        f = complete_density(15, p, 0.9)
        model = AvailabilityModel(f, f)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            a1 = float(model.availability(alpha, 1))
            w_all = float(model.write_availability_at(1))
            assert a1 == pytest.approx(alpha * p + (1 - alpha) * w_all)

    def test_curves_converge_at_majority(self):
        f = complete_density(14, 0.9, 0.85)
        model = AvailabilityModel(f, f)
        edge = [model.curve(a)[-1] for a in (0.0, 0.5, 1.0)]
        # r(v) = w(v): the spread at the right edge is only the one-vote
        # difference between q_r = 7 and q_w = 8.
        assert max(edge) - min(edge) < 0.05

"""Unit tests for the density representation helpers."""

import numpy as np
import pytest

from repro.analytic.density import (
    density_matrix_mean,
    normalize_density,
    reliability_vector,
    validate_density,
)
from repro.errors import DensityError


class TestValidateDensity:
    def test_accepts_valid(self):
        f = np.array([0.25, 0.25, 0.5])
        out = validate_density(f, total_votes=2)
        assert out.dtype == np.float64

    def test_rejects_wrong_length(self):
        with pytest.raises(DensityError):
            validate_density(np.array([0.5, 0.5]), total_votes=2)

    def test_rejects_negative_mass(self):
        with pytest.raises(DensityError):
            validate_density(np.array([-0.1, 0.6, 0.5]))

    def test_rejects_non_unit_mass(self):
        with pytest.raises(DensityError):
            validate_density(np.array([0.3, 0.3]))

    def test_rejects_2d(self):
        with pytest.raises(DensityError):
            validate_density(np.ones((2, 2)) / 4)

    def test_tolerance_absorbs_float_noise(self):
        f = np.array([0.5, 0.5 + 1e-12])
        validate_density(f)  # should not raise


class TestNormalizeDensity:
    def test_rescales(self):
        out = normalize_density(np.array([1.0, 3.0]))
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_clips_tiny_negatives(self):
        out = normalize_density(np.array([-1e-15, 1.0]))
        assert out[0] == 0.0
        assert out.sum() == pytest.approx(1.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(DensityError):
            normalize_density(np.zeros(3))

    def test_input_unmodified(self):
        f = np.array([1.0, 1.0])
        normalize_density(f)
        np.testing.assert_array_equal(f, [1.0, 1.0])


class TestDensityMatrixMean:
    def test_uniform_default(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(density_matrix_mean(matrix), [0.5, 0.5])

    def test_explicit_weights(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            density_matrix_mean(matrix, np.array([0.9, 0.1])), [0.9, 0.1]
        )

    def test_weights_must_sum_to_one(self):
        matrix = np.ones((2, 3)) / 3
        with pytest.raises(DensityError):
            density_matrix_mean(matrix, np.array([0.5, 0.6]))

    def test_negative_weights_rejected(self):
        matrix = np.ones((2, 3)) / 3
        with pytest.raises(DensityError):
            density_matrix_mean(matrix, np.array([-0.5, 1.5]))

    def test_wrong_weight_length(self):
        matrix = np.ones((2, 3)) / 3
        with pytest.raises(DensityError):
            density_matrix_mean(matrix, np.array([1.0]))

    def test_requires_2d(self):
        with pytest.raises(DensityError):
            density_matrix_mean(np.ones(3) / 3)


class TestReliabilityVector:
    """Every density backend and the vote search take reliabilities
    through one validator: NaN and values outside [0, 1] are refused."""

    @staticmethod
    def _backends():
        from repro.analytic.enumeration import enumerate_density_matrix
        from repro.analytic.montecarlo import montecarlo_density_matrix
        from repro.analytic.variance import stratified_density_matrix
        from repro.quorum.vote_optimizer import optimize_votes
        from repro.topology.generators import ring

        return {
            "enumerate": lambda p: enumerate_density_matrix(ring(4), p, 0.9),
            "montecarlo": lambda p: montecarlo_density_matrix(
                ring(4), p, 0.9, n_samples=10, seed=0),
            "stratified": lambda p: stratified_density_matrix(
                ring(4), p, 0.9, n_samples=10, seed=0),
            "optimize_votes": lambda p: optimize_votes(
                ring(4), 0.5, p, 0.9, n_samples=10, seed=0),
        }

    @pytest.mark.parametrize("value", [float("nan"), 1.5, -0.1])
    @pytest.mark.parametrize(
        "backend",
        ["enumerate", "montecarlo", "stratified", "optimize_votes"])
    def test_backend_rejects_a_non_probability(self, backend, value):
        from repro.errors import ReliabilityError

        run = self._backends()[backend]
        with pytest.raises(ReliabilityError, match=r"site reliability .*\[0, 1\]"):
            run(value)
        # One bad entry in a vector is enough.
        with pytest.raises(ReliabilityError):
            run(np.array([0.9, 0.9, value, 0.9]))

    def test_shape_and_error_family(self):
        from repro.errors import OptimizationError, ReliabilityError

        assert issubclass(ReliabilityError, DensityError)
        assert issubclass(ReliabilityError, OptimizationError)
        np.testing.assert_array_equal(reliability_vector(0.5, 3, "p"), [0.5] * 3)
        np.testing.assert_array_equal(
            reliability_vector([0.0, 1.0], 2, "p"), [0.0, 1.0])
        with pytest.raises(ReliabilityError, match="length 3"):
            reliability_vector([0.5, 0.5], 3, "p")

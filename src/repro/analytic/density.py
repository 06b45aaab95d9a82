"""Common representation and checks for component-vote densities.

A density for a system with ``T`` total votes is a numpy float array of
length ``T + 1``; entry ``v`` is the probability that the relevant site's
component holds exactly ``v`` votes. Index 0 absorbs the "site is down"
event (the paper regards a down site as belonging to a component of size
zero). A *density matrix* stacks one density per site, shape
``(n_sites, T + 1)``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import DensityError, ReliabilityError

__all__ = ["validate_density", "normalize_density", "density_matrix_mean",
           "reliability_vector"]

#: A reliability: one probability for every component, or one per component.
Reliability = Union[float, Sequence[float], np.ndarray]

#: Probability mass mismatch tolerated before :func:`validate_density` raises.
MASS_TOLERANCE = 1e-9


def reliability_vector(value: Reliability, count: int, label: str) -> np.ndarray:
    """``value`` as ``count`` float64 probabilities (a scalar is broadcast).

    Raises :class:`~repro.errors.ReliabilityError` on a wrong shape and
    on any entry outside [0, 1], NaN included.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise ReliabilityError(
            f"{label} must be scalar or length {count}, got shape {arr.shape}")
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise ReliabilityError(
            f"{label} values must be in [0, 1], got {arr[bad][0]}")
    return arr


def validate_density(
    density: np.ndarray,
    total_votes: Optional[int] = None,
    tolerance: float = MASS_TOLERANCE,
) -> np.ndarray:
    """Check that ``density`` is a proper distribution; return it as float64.

    Raises :class:`~repro.errors.DensityError` on negative mass, total mass
    away from 1 by more than ``tolerance``, or (when ``total_votes`` is
    given) wrong length.
    """
    arr = np.asarray(density, dtype=np.float64)
    if arr.ndim != 1:
        raise DensityError(f"density must be 1-D, got shape {arr.shape}")
    if total_votes is not None and arr.shape[0] != total_votes + 1:
        raise DensityError(
            f"density must have length T+1 = {total_votes + 1}, got {arr.shape[0]}"
        )
    if (arr < -tolerance).any():
        raise DensityError(f"density has negative mass (min {arr.min():.3e})")
    mass = float(arr.sum())
    if abs(mass - 1.0) > tolerance:
        raise DensityError(f"density mass is {mass:.12f}, expected 1")
    return arr


def normalize_density(density: np.ndarray) -> np.ndarray:
    """Clip tiny negatives and rescale to unit mass.

    Closed-form densities evaluated in floating point can carry ~1e-16
    noise; empirical histograms need explicit normalization. Raises when
    the input has no positive mass at all.
    """
    arr = np.asarray(density, dtype=np.float64).copy()
    arr[arr < 0] = 0.0
    mass = float(arr.sum())
    if mass <= 0.0:
        raise DensityError("cannot normalize a density with no positive mass")
    return arr / mass


def density_matrix_mean(matrix: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Mix per-site densities into one density using ``weights``.

    This is exactly step 2 of the paper's algorithm:
    ``r(v) = sum_i r_i * f_i(v)``. ``weights`` defaults to uniform and must
    sum to 1.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DensityError(f"density matrix must be 2-D, got shape {matrix.shape}")
    n_sites = matrix.shape[0]
    if weights is None:
        weights = np.full(n_sites, 1.0 / n_sites)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n_sites,):
            raise DensityError(
                f"weights must have shape ({n_sites},), got {weights.shape}"
            )
        if (weights < 0).any():
            raise DensityError("weights must be non-negative")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise DensityError(f"weights must sum to 1, got {total:.12f}")
    return weights @ matrix

"""Parameter sensitivity sweeps.

The paper evaluates a single operating point — component reliability
0.96 and ``rho = 1/128`` — and seven topologies. These utilities sweep
the reliability dimension to answer the follow-up questions the paper
leaves open: *how robust is the optimal quorum choice to the reliability
estimate?* and *where is the crossover below which majority consensus
stops paying even on dense networks?*

Each sweep point is the section-4.2 closed form
(:func:`~repro.analytic.closed_form_density`): microseconds a point, and
memoized in the cross-layer density cache under the same key every other
closed-form consumer uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analytic import closed_form_density
from repro.analytic.complete import complete_density
from repro.analytic.ring import ring_density
from repro.errors import OptimizationError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum

__all__ = [
    "SweepPoint",
    "reliability_sweep",
    "find_majority_crossover",
    "DENSITY_FAMILIES",
]

#: Analytic density families available for sweeping: name -> f(n, p, r).
DENSITY_FAMILIES: dict = {
    "ring": ring_density,
    "complete": complete_density,
}


@dataclass(frozen=True)
class SweepPoint:
    """One sweep evaluation."""

    reliability: float
    alpha: float
    optimal_read_quorum: int
    optimal_availability: float
    availability_at_majority: float
    availability_at_rowa: float


def _model(family: str, n_sites: int, reliability: float) -> AvailabilityModel:
    if family not in DENSITY_FAMILIES:
        raise OptimizationError(
            f"unknown family {family!r}; choose from {sorted(DENSITY_FAMILIES)}"
        )
    row = closed_form_density(family, n_sites, reliability, reliability)
    return AvailabilityModel(row, row)


def reliability_sweep(
    family: str,
    n_sites: int,
    alpha: float,
    reliabilities: Sequence[float],
) -> Tuple[SweepPoint, ...]:
    """Optimal assignment and endpoint availabilities at each reliability.

    Uses ``p = r`` (the paper's convention: sites and links share one
    reliability).
    """
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1], got {alpha}")
    points: List[SweepPoint] = []
    for rel in reliabilities:
        model = _model(family, n_sites, float(rel))
        best = optimal_read_quorum(model, alpha)
        curve = model.curve(alpha)
        points.append(
            SweepPoint(
                reliability=float(rel),
                alpha=alpha,
                optimal_read_quorum=best.read_quorum,
                optimal_availability=best.availability,
                availability_at_majority=float(curve[-1]),
                availability_at_rowa=float(curve[0]),
            )
        )
    return tuple(points)


def find_majority_crossover(
    family: str,
    n_sites: int,
    alpha: float,
    low: float = 0.5,
    high: float = 0.999,
    tolerance: float = 1e-4,
    max_iterations: int = 60,
) -> Optional[float]:
    """Reliability at which majority and ROWA availabilities cross.

    Returns the bisection root of
    ``A(alpha, floor(T/2)) - A(alpha, 1)`` over ``[low, high]``, or
    ``None`` when there is no sign change on the bracket (one endpoint
    dominates the whole range — e.g. a pure ring at high alpha, where
    ROWA wins everywhere).
    """

    def gap(rel: float) -> float:
        model = _model(family, n_sites, rel)
        curve = model.curve(alpha)
        return float(curve[-1] - curve[0])

    g_low, g_high = gap(low), gap(high)
    if g_low == 0.0:
        return low
    if g_high == 0.0:
        return high
    if np.sign(g_low) == np.sign(g_high):
        return None
    for _ in range(max_iterations):
        mid = (low + high) / 2.0
        g_mid = gap(mid)
        if abs(high - low) < tolerance:
            return mid
        if g_mid == 0.0:
            return mid
        if np.sign(g_mid) == np.sign(g_low):
            low, g_low = mid, g_mid
        else:
            high, g_high = mid, g_mid
    return (low + high) / 2.0

"""Section 5.4: write-throughput constraints on the optimal assignment.

The unconstrained optimum frequently lands at ``q_r = 1`` (ROWA), where a
write succeeds only when *every* copy is reachable — effectively zero
write throughput in a large system. The paper offers two remedies:

1. **Weighted availability** ``A(omega, alpha, q) = alpha R(q) +
   omega (1-alpha) W(T-q+1)`` — fold a write weight ``omega`` into the
   objective. Provided for completeness; the paper declines to recommend
   it because ``omega`` has no principled scale.
2. **Write floor** (preferred): restrict to read quorums whose induced
   write availability ``A(0, q_r) = W(T - q_r + 1)`` is at least a floor
   ``A_w``, then maximize ``A(alpha, q_r)`` over that feasible set.
   ``W`` is non-decreasing in ``q_r`` (larger ``q_r`` means smaller
   ``q_w``), so the feasible set is always an upper range of quorums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import OptimizationError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import OptimizationResult, _best_index, _result

__all__ = [
    "weighted_availability",
    "weighted_availability_curve",
    "feasible_read_quorums",
    "optimize_with_write_floor",
]


def weighted_availability(
    model: AvailabilityModel,
    omega: float,
    alpha: float,
    read_quorum,
):
    """``A(omega, alpha, q_r)`` — the write-weighted objective.

    ``omega = 1`` recovers the plain availability; ``omega > 1`` biases
    toward write throughput. Note the result is no longer a probability
    once ``omega != 1``.
    """
    if omega < 0.0:
        raise OptimizationError(f"write weight omega must be non-negative, got {omega}")
    read_part = model.read_availability(read_quorum)
    write_part = model.write_availability_at(read_quorum)
    return alpha * np.asarray(read_part) + omega * (1.0 - alpha) * np.asarray(write_part)


def weighted_availability_curve(
    model: AvailabilityModel,
    omega: float,
    alpha: float,
) -> np.ndarray:
    """The weighted objective at every feasible ``q_r``."""
    return np.asarray(
        weighted_availability(model, omega, alpha, model.feasible_read_quorums())
    )


def feasible_read_quorums(
    model: AvailabilityModel,
    min_write_availability: float,
) -> np.ndarray:
    """Read quorums whose induced write availability meets the floor.

    Returns the (possibly empty) array of ``q_r`` with
    ``A(0, q_r) >= min_write_availability``. By monotonicity this is a
    suffix ``q*..floor(T/2)`` of the feasible range.
    """
    if not 0.0 <= min_write_availability <= 1.0:
        raise OptimizationError(
            f"write availability floor must be in [0, 1], got {min_write_availability}"
        )
    quorums = model.feasible_read_quorums()
    write_curve = np.asarray(model.write_availability_at(quorums))
    return quorums[write_curve >= min_write_availability]


def optimize_with_write_floor(
    model: AvailabilityModel,
    alpha: float,
    min_write_availability: float,
) -> OptimizationResult:
    """Maximize ``A(alpha, q_r)`` subject to ``A(0, q_r) >= A_w``.

    This reproduces the paper's worked example (section 5.4): on its
    Topology 2 at ``alpha = 0.75`` the unconstrained optimum sits at
    ``q_r = 1`` with availability ~72% but write availability ~0;
    demanding ``A_w >= 20%`` moves the optimum to ``q_r = 28`` with
    availability ~50%.

    Raises :class:`~repro.errors.OptimizationError` when no quorum meets
    the floor (the floor exceeds even the majority assignment's write
    availability).
    """
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1], got {alpha}")
    feasible = feasible_read_quorums(model, min_write_availability)
    if feasible.size == 0:
        best_possible = float(
            np.asarray(model.write_availability_at(model.max_read_quorum))
        )
        raise OptimizationError(
            f"no read quorum achieves write availability >= "
            f"{min_write_availability:.4f}; the best achievable floor is "
            f"{best_possible:.4f} at q_r = {model.max_read_quorum}"
        )
    values = np.asarray(model.availability(alpha, feasible))
    idx = _best_index(values)
    return _result(
        model,
        alpha,
        int(feasible[idx]),
        float(values[idx]),
        int(feasible.size),
    )

"""Step 4 of Figure 1: find the read quorum maximizing availability.

``q_r`` ranges over the integers ``1 .. floor(T/2)`` and the whole curve
``A(alpha, .)`` is one cumulative sum, so the search is an argmax over at
most ``floor(T/2)`` values: exhaustive, exact, and effectively free. The
paper's observation that ``A(alpha, q_r)`` is "frequently maximized when
q_r = 1 or q_r = floor(T/2)" (section 5.3) is checked as a property of
the closed-form curves in ``tests/quorum/test_optimizer.py``; nothing
here relies on it.

Ties are broken toward the smaller ``q_r``: cheaper reads at equal
availability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.telemetry.recorder import current as _current_telemetry

__all__ = ["OptimizationResult", "optimal_read_quorum"]

#: Availability differences below this are treated as ties.
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a quorum optimization.

    ``evaluations`` counts calls to the availability function, the natural
    cost unit when densities come from on-line estimation refreshes.
    """

    assignment: QuorumAssignment
    availability: float
    evaluations: int
    alpha: float

    @property
    def read_quorum(self) -> int:
        return self.assignment.read_quorum

    @property
    def write_quorum(self) -> int:
        return self.assignment.write_quorum


def _result(model: AvailabilityModel, alpha: float, q_r: int,
            value: float, evaluations: int) -> OptimizationResult:
    return OptimizationResult(
        assignment=model.assignment(q_r),
        availability=float(value),
        evaluations=evaluations,
        alpha=alpha,
    )


def _best_index(values: np.ndarray) -> int:
    """Index of the maximum, ties broken toward the smallest index."""
    best = float(values.max())
    return int(np.nonzero(values >= best - _TIE_TOLERANCE)[0][0])


def _exhaustive(model: AvailabilityModel, alpha: float) -> OptimizationResult:
    curve = model.curve(alpha)
    idx = _best_index(curve)
    return _result(model, alpha, idx + 1, curve[idx], int(curve.shape[0]))


def optimal_read_quorum(
    model: AvailabilityModel,
    alpha: float,
) -> OptimizationResult:
    """Find the ``q_r`` maximizing ``A(alpha, q_r)`` (Figure 1, step 4).

    Parameters
    ----------
    model:
        The availability model built from densities.
    alpha:
        Fraction of accesses that are reads.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1], got {alpha}")
    tel = _current_telemetry()
    if not tel.enabled:
        return _exhaustive(model, alpha)
    with tel.span("optimizer.sweep", alpha=alpha,
                  total_votes=model.total_votes), \
            tel.phase("optimizer.exhaustive"):
        result = _exhaustive(model, alpha)
    tel.metrics.counter(
        "repro_optimizer_sweeps_total", "Figure-1 optimizer sweeps run",
    ).inc()
    tel.metrics.counter(
        "repro_optimizer_evaluations_total",
        "availability-curve evaluations spent by the optimizer",
    ).inc(result.evaluations)
    return result

"""Step 4 of Figure 1: find the read quorum maximizing availability.

``q_r`` ranges over the integers ``1 .. floor(T/2)``, so exhaustive search
is polynomial and — with the vectorized curve evaluation — effectively
free. The paper nevertheless points out structure worth exploiting:
``A(alpha, q_r)`` is "frequently maximized when q_r = 1 or
q_r = floor(T/2)" and is typically unimodal, enabling golden-section
search; Brent's method applies to a continuous interpolation. We provide
all four strategies behind one entry point. The exhaustive strategy is
the correctness reference; the others are property-tested to agree with
it on unimodal inputs (and the golden/endpoint strategies *verify* their
answer against the endpoints, mirroring the paper's observation).

Ties are broken toward the smaller ``q_r``: cheaper reads at equal
availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Optional

import numpy as np

from repro.errors import OptimizationError
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.telemetry.recorder import current as _current_telemetry

__all__ = ["OptimizationResult", "optimal_read_quorum", "optimize_availability"]

#: Inverse golden ratio, the golden-section reduction factor.
_INV_PHI = (sqrt(5.0) - 1.0) / 2.0

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
    method: str
    evaluations: int
    alpha: float

    @property
    def read_quorum(self) -> int:
        return self.assignment.read_quorum

    @property
    def write_quorum(self) -> int:
        return self.assignment.write_quorum


def _result(model: AvailabilityModel, alpha: float, q_r: int,
            value: float, method: str, evaluations: int) -> OptimizationResult:
    return OptimizationResult(
        assignment=model.assignment(q_r),
        availability=float(value),
        method=method,
        evaluations=evaluations,
        alpha=alpha,
    )


def _best_index(values: np.ndarray) -> int:
    """Index of the maximum, ties broken toward the smallest index."""
    best = float(values.max())
    return int(np.nonzero(values >= best - _TIE_TOLERANCE)[0][0])


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

def _exhaustive(model: AvailabilityModel, alpha: float) -> OptimizationResult:
    curve = model.curve(alpha)
    idx = _best_index(curve)
    return _result(model, alpha, idx + 1, curve[idx], "exhaustive", int(curve.shape[0]))


def _endpoints(model: AvailabilityModel, alpha: float) -> OptimizationResult:
    """Evaluate only ``q_r = 1`` and ``q_r = floor(T/2)``.

    Exact when the maximum sits at an endpoint — the situation the paper
    reports for all but one of its thirty curves. Use as a fast heuristic
    or as the seed for a local search; it is *not* guaranteed optimal.
    """
    q_max = model.max_read_quorum
    candidates = [1] if q_max == 1 else [1, q_max]
    values = np.asarray([model.availability(alpha, q) for q in candidates])
    idx = _best_index(values)
    return _result(model, alpha, candidates[idx], values[idx], "endpoints", len(candidates))


def _golden(model: AvailabilityModel, alpha: float) -> OptimizationResult:
    """Integer golden-section search, endpoint-checked.

    Classic golden-section on the integer lattice: maintain a bracket
    ``[lo, hi]`` with two interior probes; shrink toward the better probe.
    Exact for strictly unimodal sequences; for the plateaus and
    multi-modal shapes real curves can have, the final answer is compared
    against both endpoints (the paper's observation that optima
    concentrate there makes this cheap insurance).
    """
    q_max = model.max_read_quorum
    cache: dict[int, float] = {}

    def f(q: int) -> float:
        if q not in cache:
            cache[q] = float(model.availability(alpha, q))
        return cache[q]

    lo, hi = 1, q_max
    while hi - lo > 2:
        span = hi - lo
        m1 = hi - int(round(span * _INV_PHI))
        m2 = lo + int(round(span * _INV_PHI))
        if m1 <= lo:
            m1 = lo + 1
        if m2 >= hi:
            m2 = hi - 1
        if m1 >= m2:
            m1 = lo + (hi - lo) // 2
            m2 = m1 + 1
        if f(m1) >= f(m2):
            hi = m2
        else:
            lo = m1
    for q in range(lo, hi + 1):
        f(q)
    f(1)
    f(q_max)

    best_q = min(cache, key=lambda q: (-cache[q] + 0.0, q))
    # Tie-break toward smaller q_r within tolerance.
    best_value = cache[best_q]
    for q in sorted(cache):
        if cache[q] >= best_value - _TIE_TOLERANCE:
            best_q = q
            best_value = cache[q]
            break
    return _result(model, alpha, best_q, cache[best_q], "golden", len(cache))


def _brent(model: AvailabilityModel, alpha: float) -> OptimizationResult:
    """Brent's method on the continuous interpolation, snapped to integers.

    The paper (section 4.1) suggests Brent's method on the continuous
    approximation of ``A``. We interpolate the integer curve linearly,
    run bounded Brent on the negation, then evaluate the floor/ceil
    neighbours of the continuous optimum plus both endpoints and return
    the best integer point — so the result is always feasible and at
    least as good as the endpoint heuristic.

    The full integer curve is evaluated before bracketing (it is what
    gets interpolated), so ``evaluations`` equals the exhaustive count.
    Only the four candidates are compared, though: on a plateau
    (complete-101 and bus-101 have 27 points within the tie tolerance of
    the maximum) the result is a member of the exhaustive optimum's tie
    class, not necessarily its smallest ``q_r``.

    ``scipy.optimize`` is imported here, not at module level: this is the
    only strategy that needs it and no default path selects it.
    """
    from scipy.optimize import minimize_scalar

    q_max = model.max_read_quorum
    if q_max <= 3:
        return _exhaustive(model, alpha)

    quorums = np.arange(1, q_max + 1, dtype=np.float64)
    curve = model.curve(alpha)
    evaluations = int(curve.shape[0])

    def negated(x: float) -> float:
        return -float(np.interp(x, quorums, curve))

    bracket = minimize_scalar(
        negated, bounds=(1.0, float(q_max)), method="bounded"
    )
    candidates = {1, q_max}
    x = float(bracket.x)
    candidates.add(int(np.floor(x)))
    candidates.add(int(np.ceil(x)))
    candidates = {q for q in candidates if 1 <= q <= q_max}
    values = {q: float(curve[q - 1]) for q in candidates}
    best_q = min(sorted(candidates), key=lambda q: -values[q])
    # Prefer smaller q within tolerance.
    best_value = values[best_q]
    for q in sorted(candidates):
        if values[q] >= best_value - _TIE_TOLERANCE:
            best_q = q
            break
    return _result(model, alpha, best_q, values[best_q], "brent", evaluations)


_STRATEGIES: dict[str, Callable[[AvailabilityModel, float], OptimizationResult]] = {
    "exhaustive": _exhaustive,
    "endpoints": _endpoints,
    "golden": _golden,
    "brent": _brent,
}


def optimal_read_quorum(
    model: AvailabilityModel,
    alpha: float,
    method: str = "exhaustive",
) -> OptimizationResult:
    """Find the ``q_r`` maximizing ``A(alpha, q_r)`` (Figure 1, step 4).

    Parameters
    ----------
    model:
        The availability model built from densities.
    alpha:
        Fraction of accesses that are reads.
    method:
        ``"exhaustive"`` (default, exact), ``"endpoints"``, ``"golden"``,
        or ``"brent"``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1], got {alpha}")
    try:
        strategy = _STRATEGIES[method]
    except KeyError:
        raise OptimizationError(
            f"unknown method {method!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    tel = _current_telemetry()
    if not tel.enabled:
        return strategy(model, alpha)
    with tel.span("optimizer.sweep", method=method, alpha=alpha,
                  total_votes=model.total_votes), \
            tel.phases.phase(f"optimizer.{method}"):
        result = strategy(model, alpha)
    tel.metrics.counter(
        "repro_optimizer_sweeps_total", "Figure-1 optimizer sweeps run",
    ).inc(method=method)
    tel.metrics.counter(
        "repro_optimizer_evaluations_total",
        "availability-curve evaluations spent by the optimizer",
    ).inc(result.evaluations, method=method)
    return result


def optimize_availability(
    model: AvailabilityModel,
    alpha: float,
    method: str = "exhaustive",
) -> OptimizationResult:
    """Alias of :func:`optimal_read_quorum` for discoverability."""
    return optimal_read_quorum(model, alpha, method=method)

"""The paper's core contribution: quorum machinery and optimal assignment.

Layout:

- :mod:`repro.quorum.assignment` — :class:`QuorumAssignment` with the
  consistency constraints of section 2.1 (``q_r + q_w > T``,
  ``q_w > T/2``).
- :mod:`repro.quorum.availability` — the Figure-1 algebra: mixing per-site
  densities into ``r(v)``/``w(v)`` and evaluating
  ``A(α, q_r) = α·R(q_r) + (1-α)·W(T-q_r+1)`` for one ``q_r`` or all of
  them at once.
- :mod:`repro.quorum.optimizer` — step 4 of Figure 1: the exhaustive
  argmax over ``q_r``.
- :mod:`repro.quorum.constraints` — the section 5.4 enhancements: weighted
  availability ``A(ω, α, q)`` and optimization under a minimum write
  throughput ``A_w``.
"""

from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import (
    AvailabilityModel,
    availability,
    availability_curve,
    read_availability,
    write_availability,
)
from repro.quorum.optimizer import OptimizationResult, optimal_read_quorum
from repro.quorum.constraints import (
    feasible_read_quorums,
    optimize_with_write_floor,
    weighted_availability,
    weighted_availability_curve,
)
from repro.quorum.vote_optimizer import VoteSearchResult, optimize_votes

__all__ = [
    "AvailabilityModel",
    "OptimizationResult",
    "QuorumAssignment",
    "VoteSearchResult",
    "availability",
    "availability_curve",
    "feasible_read_quorums",
    "optimal_read_quorum",
    "optimize_votes",
    "optimize_with_write_floor",
    "read_availability",
    "weighted_availability",
    "weighted_availability_curve",
    "write_availability",
]

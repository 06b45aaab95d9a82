"""The Figure-1 availability algebra.

Given per-site component-vote densities ``f_i(v)`` and the access
distributions, the paper forms (step 2)

    r(v) = sum_i r_i f_i(v),    w(v) = sum_i w_i f_i(v)

— the probability that an arbitrary read (write) lands at a site whose
component holds exactly ``v`` votes — and evaluates (step 3)

    A(alpha, q_r) = alpha * R(q_r) + (1 - alpha) * W(T - q_r + 1)

where ``R(q) = sum_{k >= q} r(k)`` and ``W(q) = sum_{k >= q} w(k)`` are
upper cumulative sums. Everything here is vectorized: one call produces
the availability at every feasible ``q_r`` simultaneously, which is what
makes regenerating a whole paper figure from a single simulation run
cheap.

:class:`AvailabilityModel` bundles ``T``, ``r(v)`` and ``w(v)`` so the
optimizers and the write-constraint machinery share one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.analytic.density import density_matrix_mean, validate_density
from repro.errors import DensityError, QuorumConstraintError
from repro.quorum.assignment import QuorumAssignment

__all__ = [
    "read_availability",
    "write_availability",
    "availability",
    "availability_curve",
    "upper_cumulative",
    "AvailabilityModel",
]

QuorumLike = Union[int, np.ndarray, Sequence[int]]


def upper_cumulative(density: np.ndarray) -> np.ndarray:
    """``U[q] = sum_{k >= q} density[k]`` for q in 0..T (length T+1).

    This is the survival function the whole Figure-1 algebra rests on:
    ``R``, ``W``, and the SURV objective are all upper cumulatives of some
    vote density. Public so the verification subsystem's metamorphic
    relations can state identities directly against it.
    """
    return np.cumsum(density[::-1])[::-1]


def _check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise QuorumConstraintError(f"read fraction alpha must be in [0, 1], got {alpha}")
    return float(alpha)


def _lookup(upper: np.ndarray, quorum: QuorumLike, kind: str) -> Union[float, np.ndarray]:
    """``upper[q]`` for a scalar or array quorum ``q`` in ``1..T``."""
    T = upper.shape[0] - 1
    q = np.asarray(quorum, dtype=np.int64)
    if (q < 1).any() or (q > T).any():
        raise QuorumConstraintError(f"{kind} quorum must be in 1..{T}")
    result = upper[q]
    return float(result) if np.isscalar(quorum) or q.ndim == 0 else result


def _mix(
    alpha: float, read_upper: np.ndarray, write_upper: np.ndarray, read_quorum: QuorumLike
) -> Union[float, np.ndarray]:
    """``alpha * R(q_r) + (1 - alpha) * W(T - q_r + 1)`` from ``R`` and ``W``."""
    T = read_upper.shape[0] - 1
    q_r = np.asarray(read_quorum, dtype=np.int64)
    q_w = T - q_r + 1
    read_part = _lookup(read_upper, q_r if q_r.ndim else int(q_r), "read")
    write_part = _lookup(write_upper, q_w if q_w.ndim else int(q_w), "write")
    return alpha * read_part + (1.0 - alpha) * write_part


def read_availability(read_density: np.ndarray, read_quorum: QuorumLike) -> Union[float, np.ndarray]:
    """``R(q_r)``: probability an arbitrary read is granted.

    ``read_density`` is ``r(v)`` (length ``T + 1``); ``read_quorum`` may be
    a scalar or an array of quorums, and the result matches its shape.
    """
    return _lookup(upper_cumulative(validate_density(read_density)), read_quorum, "read")


def write_availability(write_density: np.ndarray, write_quorum: QuorumLike) -> Union[float, np.ndarray]:
    """``W(q_w)``: probability an arbitrary write is granted."""
    return _lookup(upper_cumulative(validate_density(write_density)), write_quorum, "write")


def availability(
    alpha: float,
    read_density: np.ndarray,
    write_density: np.ndarray,
    read_quorum: QuorumLike,
) -> Union[float, np.ndarray]:
    """Step 3 of Figure 1 for one or many read quorums.

    ``A(alpha, q_r) = alpha * R(q_r) + (1 - alpha) * W(T - q_r + 1)``.
    """
    alpha = _check_alpha(alpha)
    r = validate_density(read_density)
    w = validate_density(write_density)
    if r.shape != w.shape:
        raise DensityError(
            f"read/write densities must share a vote range, got {r.shape} vs {w.shape}"
        )
    return _mix(alpha, upper_cumulative(r), upper_cumulative(w), read_quorum)


def availability_curve(
    alpha: float,
    read_density: np.ndarray,
    write_density: np.ndarray,
) -> np.ndarray:
    """``A(alpha, q_r)`` at every feasible ``q_r`` (1..floor(T/2)).

    Index ``k`` of the result is the availability at ``q_r = k + 1`` —
    exactly one curve of a paper figure.
    """
    r = validate_density(read_density)
    T = r.shape[0] - 1
    q_max = max(T // 2, 1)
    quorums = np.arange(1, q_max + 1)
    return np.asarray(availability(alpha, read_density, write_density, quorums))


@dataclass(frozen=True)
class AvailabilityModel:
    """``T`` plus the mixed densities ``r(v)``, ``w(v)`` of Figure 1 step 2.

    Construct directly from densities, or from a per-site density matrix
    with :meth:`from_density_matrix`. Densities are validated, and their
    upper cumulatives ``R`` and ``W`` computed, once at construction; all
    evaluation methods are then lookups into those read-only arrays, with
    the module functions' arithmetic, so their answers are bitwise equal.
    """

    read_density: np.ndarray
    write_density: np.ndarray
    _read_upper: np.ndarray = field(init=False, repr=False, compare=False)
    _write_upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = validate_density(self.read_density)
        w = validate_density(self.write_density)
        if r.shape != w.shape:
            raise DensityError(
                f"read/write densities must share a vote range, got {r.shape} vs {w.shape}"
            )
        for name, density in (("read", r), ("write", w)):
            upper = upper_cumulative(density)
            density.setflags(write=False)
            upper.setflags(write=False)
            object.__setattr__(self, f"{name}_density", density)
            object.__setattr__(self, f"_{name}_upper", upper)

    # ------------------------------------------------------------------
    @classmethod
    def from_density_matrix(
        cls,
        matrix: np.ndarray,
        read_weights: Optional[np.ndarray] = None,
        write_weights: Optional[np.ndarray] = None,
    ) -> "AvailabilityModel":
        """Mix per-site ``f_i`` rows with the access distributions.

        ``read_weights[i]`` is the paper's ``r_i`` (fraction of reads
        submitted at site ``i``); ``write_weights`` is ``w_i``. Both
        default to uniform, in which case ``r(v) = w(v)`` (section 4.1).
        """
        r = density_matrix_mean(matrix, read_weights)
        w = r if (write_weights is None and read_weights is None) else density_matrix_mean(
            matrix, write_weights
        )
        return cls(r, w)

    # ------------------------------------------------------------------
    @property
    def total_votes(self) -> int:
        return int(self.read_density.shape[0] - 1)

    @property
    def max_read_quorum(self) -> int:
        """``floor(T/2)``, the largest non-dominated read quorum."""
        return max(self.total_votes // 2, 1)

    def feasible_read_quorums(self) -> np.ndarray:
        """All feasible read quorums ``1..floor(T/2)`` as an array."""
        return np.arange(1, self.max_read_quorum + 1)

    # ------------------------------------------------------------------
    def read_availability(self, read_quorum: QuorumLike) -> Union[float, np.ndarray]:
        """``R(q_r)`` under this model."""
        return _lookup(self._read_upper, read_quorum, "read")

    def write_availability_at(self, read_quorum: QuorumLike) -> Union[float, np.ndarray]:
        """``W(T - q_r + 1)``: write availability induced by ``q_r``.

        This is also ``A(0, q_r)`` — the bottom curve of every paper
        figure, used by the write-floor constraint of section 5.4.
        """
        q_r = np.asarray(read_quorum, dtype=np.int64)
        q_w = self.total_votes - q_r + 1
        return _lookup(self._write_upper, q_w if q_w.ndim else int(q_w), "write")

    def availability(self, alpha: float, read_quorum: QuorumLike) -> Union[float, np.ndarray]:
        """``A(alpha, q_r)``."""
        return _mix(_check_alpha(alpha), self._read_upper, self._write_upper, read_quorum)

    def curve(self, alpha: float) -> np.ndarray:
        """``A(alpha, q_r)`` over all feasible quorums (a figure curve)."""
        return np.asarray(self.availability(alpha, self.feasible_read_quorums()))

    def assignment(self, read_quorum: int) -> QuorumAssignment:
        """Materialize ``q_r`` into a validated :class:`QuorumAssignment`."""
        return QuorumAssignment.from_read_quorum(self.total_votes, read_quorum)

"""The paper's tabular analyses: write constraints (5.4) and the
read-write-ratio summary (5.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.quorum.availability import AvailabilityModel
from repro.quorum.constraints import feasible_read_quorums, optimize_with_write_floor
from repro.quorum.optimizer import optimal_read_quorum

__all__ = [
    "WriteConstraintRow",
    "write_constraint_table",
    "ReadWriteRatioRow",
    "read_write_ratio_table",
]


@dataclass(frozen=True)
class WriteConstraintRow:
    """Optimal assignment under one write-availability floor."""

    write_floor: float
    read_quorum: Optional[int]
    write_quorum: Optional[int]
    availability: Optional[float]
    write_availability: Optional[float]
    feasible: bool


def write_constraint_table(
    model: AvailabilityModel,
    alpha: float,
    write_floors: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6),
) -> Tuple[WriteConstraintRow, ...]:
    """Optimal ``q_r`` under each write floor (section 5.4's analysis).

    ``write_floor = 0`` row is the unconstrained optimum. Infeasible
    floors (beyond what majority can deliver) produce a row flagged
    ``feasible=False`` rather than an exception, so the full sweep always
    renders. A floor or ``alpha`` outside [0, 1] raises
    :class:`~repro.errors.OptimizationError`.
    """
    rows = []
    for floor in write_floors:
        if feasible_read_quorums(model, floor).size == 0:
            rows.append(
                WriteConstraintRow(
                    write_floor=float(floor),
                    read_quorum=None,
                    write_quorum=None,
                    availability=None,
                    write_availability=None,
                    feasible=False,
                )
            )
            continue
        res = optimize_with_write_floor(model, alpha, floor)
        write_avail = float(np.asarray(model.write_availability_at(res.read_quorum)))
        rows.append(
            WriteConstraintRow(
                write_floor=float(floor),
                read_quorum=res.read_quorum,
                write_quorum=res.write_quorum,
                availability=res.availability,
                write_availability=write_avail,
                feasible=True,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class ReadWriteRatioRow:
    """Section 5.5 summary for one (topology, alpha) cell.

    Records where the optimum falls and how the two canonical static
    choices — majority and ROWA — compare, quantifying the paper's claim
    that write-only research (``q_r = q_w``) transfers only to dense
    topologies and low read rates.
    """

    topology_name: str
    alpha: float
    optimal_read_quorum: int
    optimal_availability: float
    availability_at_majority: float
    availability_at_rowa: float
    #: The regime flags record *attainment* (does the endpoint reach the
    #: optimum within tolerance?), not the argmax — on dense topologies
    #: the curve plateaus and several quorums tie, and the paper's claim
    #: "majority is optimal" means majority attains the maximum.
    optimum_is_majority: bool
    optimum_is_rowa: bool
    optimum_is_interior: bool
    majority_is_worst: bool


def read_write_ratio_table(
    models: Sequence[Tuple[str, AvailabilityModel]],
    alphas: Sequence[float],
) -> Tuple[ReadWriteRatioRow, ...]:
    """Build the section 5.5 grid over topologies and read fractions."""
    tol = 1e-9
    rows = []
    for name, model in models:
        q_max = model.max_read_quorum
        for alpha in alphas:
            res = optimal_read_quorum(model, float(alpha))
            curve = model.curve(float(alpha))
            q_opt = res.read_quorum
            best = float(curve.max())
            at_majority = best - float(curve[-1]) <= tol
            at_rowa = best - float(curve[0]) <= tol
            rows.append(
                ReadWriteRatioRow(
                    topology_name=name,
                    alpha=float(alpha),
                    optimal_read_quorum=q_opt,
                    optimal_availability=res.availability,
                    availability_at_majority=float(curve[-1]),
                    availability_at_rowa=float(curve[0]),
                    optimum_is_majority=at_majority,
                    optimum_is_rowa=at_rowa,
                    optimum_is_interior=not (at_majority or at_rowa),
                    majority_is_worst=bool(
                        curve[-1] <= curve.min() + tol
                    ),
                )
            )
    return tuple(rows)

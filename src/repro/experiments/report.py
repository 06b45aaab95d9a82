"""Plain-text rendering of figure and table data.

The benchmark harness prints these so that a reproduction run emits the
same rows/series the paper reports, ready to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.figures import FigureData
from repro.experiments.tables import ReadWriteRatioRow, WriteConstraintRow

__all__ = ["render_figure", "render_write_constraint_table", "render_rw_table"]


#: Quorum rows a rendered figure shows.
_FIGURE_ROWS = 12


def _sample_indices(n: int) -> np.ndarray:
    """Evenly spaced indices (always including both endpoints)."""
    if n <= _FIGURE_ROWS:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, _FIGURE_ROWS).round().astype(int))


def _spaced(n: int) -> str:
    """``3318`` as ``3 318``."""
    return f"{n:,}".replace(",", " ")


def render_figure(data: FigureData) -> str:
    """Render one figure as a q_r-by-alpha availability table."""
    idx = _sample_indices(data.quorums.shape[0])
    header_alphas = "  ".join(f"a={s.alpha:4.2f}" for s in data.series)
    run = data.result
    epochs = sum(b.n_epochs for b in run.batches)
    events = sum(b.n_events for b in run.batches)
    lines = [
        f"figure: availability vs read quorum — {data.topology_name}",
        f"  accounting: {run.config.accounting} · {run.n_batches} batches · "
        f"{_spaced(epochs)} epochs · {_spaced(events)} events",
        f"  q_r   {header_alphas}",
    ]
    for i in idx:
        cells = "  ".join(f"{s.availability[i]:6.4f}" for s in data.series)
        lines.append(f"  {int(data.quorums[i]):4d}  {cells}")
    for s in data.series:
        endpoint = "endpoint" if s.maximized_at_endpoint else "INTERIOR"
        lines.append(
            f"  optimum alpha={s.alpha:4.2f}: q_r={s.argmax_quorum} "
            f"A={s.max_value:.4f} ({endpoint})"
        )
    lines.append(f"  convergence spread at q_r=floor(T/2): {data.convergence_spread:.4f}")
    return "\n".join(lines)


def render_write_constraint_table(
    rows: Sequence[WriteConstraintRow], alpha: float, topology_name: str
) -> str:
    lines = [
        f"write-constraint optimization — {topology_name}, alpha={alpha:g}",
        "  floor A_w   q_r   q_w   A(alpha,q_r)   A(0,q_r)",
    ]
    for row in rows:
        if not row.feasible:
            lines.append(f"  {row.write_floor:9.2f}   infeasible")
            continue
        lines.append(
            f"  {row.write_floor:9.2f}   {row.read_quorum:3d}   {row.write_quorum:3d}"
            f"   {row.availability:12.4f}   {row.write_availability:8.4f}"
        )
    return "\n".join(lines)


def render_rw_table(rows: Sequence[ReadWriteRatioRow]) -> str:
    lines = [
        "read-write-ratio summary (section 5.5)",
        "  topology              alpha   q_r*      A*     A(maj)   A(rowa)  regime",
    ]
    for row in rows:
        if row.optimum_is_interior:
            regime = "interior"
        elif row.optimum_is_majority:
            regime = "majority"
        else:
            regime = "rowa"
        worst = " majority-worst" if row.majority_is_worst else ""
        lines.append(
            f"  {row.topology_name:<20s}  {row.alpha:5.2f}   {row.optimal_read_quorum:4d}"
            f"  {row.optimal_availability:6.4f}  {row.availability_at_majority:7.4f}"
            f"  {row.availability_at_rowa:7.4f}  {regime}{worst}"
        )
    return "\n".join(lines)

"""One-call regeneration of the paper's entire evaluation section.

:func:`run_campaign` executes everything section 5 reports — all six
figures, the section 5.4 write-constraint example, and the section 5.5
read-write-ratio table — at a chosen scale, and
:func:`render_campaign` renders it as one text report ready to diff
against EXPERIMENTS.md. ``python -m repro campaign`` is the CLI entry.

At ``PAPER_SCALE`` this is the full reproduction run: ``repro campaign
--scale paper`` took 31 s wall (28 s user) in one process on a 2-core
Intel Xeon; the default bench scale finishes in about a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.figures import FigureData, figure_data
from repro.experiments.paper import (
    PAPER_ALPHAS,
    PAPER_CHORD_COUNTS,
    ExperimentScale,
    SMALL_SCALE,
)
from repro.experiments.report import (
    render_figure,
    render_rw_table,
    render_write_constraint_table,
)
from repro.experiments.tables import (
    ReadWriteRatioRow,
    WriteConstraintRow,
    read_write_ratio_table,
    write_constraint_table,
)

__all__ = ["CampaignResult", "run_campaign", "render_campaign"]

#: Figure number -> chord count, as in the paper (Figures 2-7; 4949 is
#: stated to coincide with 256 and is costly, so it is opt-in).
FIGURE_CHORDS: Tuple[Tuple[int, int], ...] = (
    (2, 0), (3, 1), (4, 2), (5, 4), (6, 16), (7, 256),
)


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    scale_name: str
    figures: List[Tuple[int, FigureData]]
    write_constraint_rows: Tuple[WriteConstraintRow, ...]
    write_constraint_alpha: float
    rw_rows: Tuple[ReadWriteRatioRow, ...]

    def figure(self, number: int) -> FigureData:
        for num, data in self.figures:
            if num == number:
                return data
        raise KeyError(f"no figure {number} in this campaign")


def run_campaign(
    scale: ExperimentScale = SMALL_SCALE,
    seed: int = 0,
    alphas: Sequence[float] = PAPER_ALPHAS,
    write_constraint_alpha: float = 0.75,
    write_floors: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    include_fully_connected: bool = False,
) -> CampaignResult:
    """Run every section-5 experiment at ``scale``.

    One simulation per topology; every figure curve and both tables come
    from those runs' on-line density estimates (the paper's own
    technique, section 4.2).
    """
    figure_list = list(FIGURE_CHORDS)
    if include_fully_connected:
        figure_list.append((8, PAPER_CHORD_COUNTS[-1]))

    figures: List[Tuple[int, FigureData]] = []
    models = []
    for number, chords in figure_list:
        fig = figure_data(chords=chords, scale=scale, seed=seed + chords)
        figures.append((number, fig))
        models.append((fig.topology_name, fig.model))

    # Section 5.4 reads its worked example off Topology 2 (our Figure 4).
    topology2 = next(fig for num, fig in figures if num == 4)
    wc_rows = write_constraint_table(
        topology2.model, write_constraint_alpha, write_floors=write_floors
    )

    rw_rows = read_write_ratio_table(models, alphas)
    return CampaignResult(
        scale_name=scale.name,
        figures=figures,
        write_constraint_rows=wc_rows,
        write_constraint_alpha=write_constraint_alpha,
        rw_rows=rw_rows,
    )


def render_campaign(result: CampaignResult, max_points: int = 12) -> str:
    """The whole campaign as one text report."""
    lines = [
        "=" * 72,
        "Johnson & Raab (ICPP 1991) — evaluation campaign "
        f"(scale: {result.scale_name})",
        "=" * 72,
    ]
    for number, fig in result.figures:
        lines.append("")
        lines.append(f"--- Figure {number} ---")
        lines.append(render_figure(fig, max_points=max_points))
    lines.append("")
    lines.append("--- section 5.4 write-constraint example (Topology 2) ---")
    topology2 = result.figure(4)
    lines.append(
        render_write_constraint_table(
            result.write_constraint_rows,
            result.write_constraint_alpha,
            topology2.topology_name,
        )
    )
    lines.append("")
    lines.append("--- section 5.5 ---")
    lines.append(render_rw_table(result.rw_rows))
    return "\n".join(lines)

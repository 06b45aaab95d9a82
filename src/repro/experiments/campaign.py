"""One-call regeneration of the paper's entire evaluation section.

:func:`run_campaign` executes everything section 5 reports — all six
figures, the section 5.4 write-constraint example, and the section 5.5
read-write-ratio table — at a chosen scale, or the sections it is asked
for, and :func:`render_campaign` renders it as one text report ready to
diff against EXPERIMENTS.md. ``python -m repro campaign [--only ID ...]``
is the CLI entry.

At ``PAPER_SCALE``, the default, this is the full reproduction run:
``repro campaign`` took 39.5 s wall in one process on a 2-core x86-64
host; ``--scale test`` takes under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.figures import FigureData, figure_data
from repro.experiments.paper import (
    PAPER_ALPHAS,
    PAPER_CHORD_COUNTS,
    PAPER_SCALE,
    ExperimentScale,
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

__all__ = ["CampaignResult", "SECTION_IDS", "run_campaign", "render_campaign"]

#: Figure number -> chord count, as in the paper (Figures 2-7), then
#: 4949 as Figure 8: stated to coincide with 256 and costly, so opt-in.
FIGURE_CHORDS: Tuple[Tuple[int, int], ...] = (
    (2, 0), (3, 1), (4, 2), (5, 4), (6, 16), (7, 256), (8, PAPER_CHORD_COUNTS[-1]),
)

#: Section 5.4 reads its worked example off Topology 2 (our Figure 4),
#: at alpha = 0.75, over these write-availability floors.
WRITE_CONSTRAINT_FIGURE = 4
WRITE_CONSTRAINT_ALPHA = 0.75
WRITE_FLOORS = (0.0, 0.05, 0.1, 0.2)

#: The report's sections in report order; ``FIG-8`` needs the fully
#: connected topology (``include_fully_connected``, ``--full``).
SECTION_IDS: Tuple[str, ...] = tuple(
    f"FIG-{number}" for number, _ in FIGURE_CHORDS
) + ("TAB-WC", "TAB-RW")


@dataclass
class CampaignResult:
    """Everything one campaign run produced: the figures its ``sections``
    needed, and the tables among them."""

    scale_name: str
    sections: Tuple[str, ...]
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
    scale: ExperimentScale = PAPER_SCALE,
    seed: int = 0,
    include_fully_connected: bool = False,
    only: Optional[Sequence[str]] = None,
) -> CampaignResult:
    """Run the section-5 experiments at ``scale``: every section, or the
    :data:`SECTION_IDS` that ``only`` names.

    One simulation per topology a selected section needs (TAB-WC needs
    topology 2, TAB-RW all of them), seeded ``seed + chords``, so a
    section comes out the same alone as in the whole report. Every curve
    and both tables come from those runs' on-line density estimates (the
    paper's own technique, section 4.2).
    """
    figure_list = FIGURE_CHORDS if include_fully_connected else FIGURE_CHORDS[:-1]
    available = [f"FIG-{number}" for number, _ in figure_list] + ["TAB-WC", "TAB-RW"]
    unknown = sorted(set(only or ()) - set(available))
    if unknown:
        raise ReproError(f"no campaign section {', '.join(unknown)}: this campaign "
                         f"has {' '.join(available)} (FIG-8 needs --full)")
    sections = tuple(s for s in available if only is None or s in only)

    figures = [
        (number, figure_data(chords=chords, scale=scale, seed=seed + chords))
        for number, chords in figure_list
        if f"FIG-{number}" in sections or "TAB-RW" in sections
        or (number == WRITE_CONSTRAINT_FIGURE and "TAB-WC" in sections)
    ]
    wc_rows: Tuple[WriteConstraintRow, ...] = ()
    if "TAB-WC" in sections:
        wc_rows = write_constraint_table(
            dict(figures)[WRITE_CONSTRAINT_FIGURE].model,
            WRITE_CONSTRAINT_ALPHA,
            write_floors=WRITE_FLOORS,
        )
    rw_rows: Tuple[ReadWriteRatioRow, ...] = ()
    if "TAB-RW" in sections:
        rw_rows = read_write_ratio_table(
            [(fig.topology_name, fig.model) for _, fig in figures], PAPER_ALPHAS
        )
    return CampaignResult(
        scale_name=scale.name,
        sections=sections,
        figures=figures,
        write_constraint_rows=wc_rows,
        write_constraint_alpha=WRITE_CONSTRAINT_ALPHA,
        rw_rows=rw_rows,
    )


def render_campaign(result: CampaignResult) -> str:
    """The campaign's selected sections as one text report."""
    lines = [
        "=" * 72,
        "Johnson & Raab (ICPP 1991) — evaluation campaign "
        f"(scale: {result.scale_name})",
        "=" * 72,
    ]
    for number, fig in result.figures:
        if f"FIG-{number}" not in result.sections:
            continue
        lines.append("")
        lines.append(f"--- Figure {number} ---")
        lines.append(render_figure(fig))
    if "TAB-WC" in result.sections:
        lines.append("")
        lines.append("--- section 5.4 write-constraint example (Topology 2) ---")
        lines.append(
            render_write_constraint_table(
                result.write_constraint_rows,
                result.write_constraint_alpha,
                result.figure(WRITE_CONSTRAINT_FIGURE).topology_name,
            )
        )
    if "TAB-RW" in result.sections:
        lines.append("")
        lines.append("--- section 5.5 ---")
        lines.append(render_rw_table(result.rw_rows))
    return "\n".join(lines)

"""Experiment layer: canonical parameters and figure/table regeneration.

- :mod:`repro.experiments.paper` — the paper's section 5 parameters
  (101 sites, seven topologies, reliability 0.96, rho = 1/128, five read
  fractions) plus the small ``TEST_SCALE`` the tests run at.
- :mod:`repro.experiments.figures` — regenerate the data behind
  Figures 2–7: availability vs read quorum, one curve per alpha.
- :mod:`repro.experiments.tables` — the section 5.4 write-constraint
  analysis and the section 5.5 read-write-ratio summary table.
- :mod:`repro.experiments.report` — plain-text rendering of the above.
"""

from repro.experiments.paper import (
    PAPER_ALPHAS,
    PAPER_CHORD_COUNTS,
    PAPER_N_SITES,
    PAPER_RELIABILITY,
    PAPER_RHO,
    PAPER_SCALE,
    ExperimentScale,
    TEST_SCALE,
)
from repro.experiments.figures import FigureData, FigureSeries, figure_data
from repro.experiments.tables import (
    ReadWriteRatioRow,
    WriteConstraintRow,
    read_write_ratio_table,
    write_constraint_table,
)
from repro.experiments.report import (
    render_figure,
    render_rw_table,
    render_write_constraint_table,
)
from repro.experiments.campaign import CampaignResult, render_campaign, run_campaign
from repro.experiments.sweeps import (
    SweepPoint,
    find_majority_crossover,
    reliability_sweep,
)

__all__ = [
    "ExperimentScale",
    "FigureData",
    "FigureSeries",
    "PAPER_ALPHAS",
    "PAPER_CHORD_COUNTS",
    "PAPER_N_SITES",
    "PAPER_RELIABILITY",
    "PAPER_RHO",
    "PAPER_SCALE",
    "CampaignResult",
    "ReadWriteRatioRow",
    "SweepPoint",
    "TEST_SCALE",
    "WriteConstraintRow",
    "figure_data",
    "find_majority_crossover",
    "read_write_ratio_table",
    "render_figure",
    "render_campaign",
    "render_rw_table",
    "reliability_sweep",
    "render_write_constraint_table",
    "run_campaign",
    "write_constraint_table",
]

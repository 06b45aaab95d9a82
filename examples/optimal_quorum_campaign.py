#!/usr/bin/env python
"""Reproduce a miniature of the paper's evaluation campaign (Figures 2-7).

For a set of ring-plus-chords topologies, run one simulation each, build
the availability curves for the paper's five read fractions from the
on-line density estimate, and print the figure tables plus the section
5.5 read-write-ratio summary.

Scale is configurable; the default finishes in under a minute. Pass
``--scale paper`` for the full 101-site, million-access configuration:
15 s wall on a 2-core Intel Xeon, where ``repro campaign --scale paper``
(all figures and both tables) took 31 s.

Run:  python examples/optimal_quorum_campaign.py [--scale test|small|paper]
"""

import argparse

from repro.experiments.figures import figure_data
from repro.experiments.paper import PAPER_ALPHAS, PAPER_SCALE, SMALL_SCALE, TEST_SCALE
from repro.experiments.report import render_figure, render_rw_table
from repro.experiments.tables import read_write_ratio_table

SCALES = {"test": TEST_SCALE, "small": SMALL_SCALE, "paper": PAPER_SCALE}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="test")
    parser.add_argument(
        "--chords",
        type=int,
        nargs="+",
        default=[0, 2, 16],
        help="paper topology indices to evaluate",
    )
    args = parser.parse_args()
    scale = SCALES[args.scale]

    models = []
    for chords in args.chords:
        fig = figure_data(chords=chords, scale=scale, seed=chords)
        print(render_figure(fig))
        print()
        models.append((fig.topology_name, fig.model))

    print(render_rw_table(read_write_ratio_table(models, PAPER_ALPHAS)))


if __name__ == "__main__":
    main()

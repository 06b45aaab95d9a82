#!/usr/bin/env python
"""The section 5.4 workflow: optimal quorums under a write-throughput floor.

On a sparse, read-heavy network the unconstrained optimum is usually
``q_r = 1`` (read-one/write-all) — and then a write succeeds only when
every copy is reachable, which in a large network is nearly never. The
paper's preferred remedy: restrict to read quorums whose induced write
availability ``A(0, q_r)`` meets a floor ``A_w``, then maximize.

This example reproduces the paper's worked example (its Topology 2 at
``alpha = 0.75`` with ``A_w >= 20%``) at the paper's full scale, and
also shows the alternative write-weighting method the paper describes but
declines to recommend.

Run:  python examples/write_constraint_tuning.py
"""

import sys

import numpy as np

from repro.cli import run_script
from repro.experiments.figures import figure_data
from repro.experiments.paper import PAPER_SCALE
from repro.experiments.report import render_write_constraint_table
from repro.experiments.tables import write_constraint_table
from repro.quorum.constraints import optimize_with_write_floor, weighted_availability_curve
from repro.quorum.optimizer import optimal_read_quorum

ALPHA = 0.75
FLOOR = 0.20


def main() -> None:
    print("simulating the paper's Topology 2 (101-site ring + 2 chords)...")
    fig = figure_data(chords=2, scale=PAPER_SCALE, seed=2)
    model = fig.model

    free = optimal_read_quorum(model, ALPHA)
    free_write = float(np.asarray(model.write_availability_at(free.read_quorum)))
    print(
        f"unconstrained optimum: {free.assignment} "
        f"A = {free.availability:.4f}, but write availability only {free_write:.4f}"
    )

    constrained = optimize_with_write_floor(model, ALPHA, FLOOR)
    cons_write = float(np.asarray(model.write_availability_at(constrained.read_quorum)))
    print(
        f"with A_w >= {FLOOR:.0%}:      {constrained.assignment} "
        f"A = {constrained.availability:.4f}, write availability {cons_write:.4f}"
    )
    print(
        "(the paper reports q_r = 28 and A = 50% for its chord placement; "
        "see DESIGN.md on the substitution)"
    )

    print()
    print(render_write_constraint_table(
        write_constraint_table(model, ALPHA), ALPHA, fig.topology_name
    ))

    print()
    print("alternative (not recommended by the paper): write weighting")
    for omega in (1.0, 2.0, 5.0):
        curve = weighted_availability_curve(model, omega, ALPHA)
        q = int(np.argmax(curve)) + 1
        write = float(np.asarray(model.write_availability_at(q)))
        print(
            f"  omega = {omega:3.1f}: argmax q_r = {q:3d}, "
            f"A = {float(model.availability(ALPHA, q)):.4f}, A_w-level = {write:.4f}"
        )


if __name__ == "__main__":
    sys.exit(run_script(main))

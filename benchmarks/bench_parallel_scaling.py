"""PAR-SCALE: does the batch fan-out pay on the cores this host has?

One claim, on the one configuration where it can be true: the paper's
fully connected topology (4949 chords) at ``paper`` scale costs about
12 CPU seconds a batch, so worker start-up is noise and two workers on
two cores should come close to halving the wall clock. ``run_simulation``
runs 4 batches with 1 and with 2 workers, alternating which goes first,
``REPEATS`` times; the two results are asserted bitwise identical and the
ratio of median wall clocks must reach ``MIN_RATIO`` (ROADMAP item 1's
bar for keeping the pool at all).

Skipped, with the reason, on a host with fewer than two cores: a fan-out
speed-up measured on one core is not a measurement. Takes about two
minutes; run it alone::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py -s
"""

import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import _BENCH_JSON
from repro.experiments.paper import PAPER_SCALE
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.runner import run_simulation

CHORDS = 4949
N_BATCHES = 4
SEED = 977
REPEATS = 3
MIN_RATIO = 1.6


def _aggregates(result):
    return (
        result.availability.values,
        result.surv_read.values,
        result.surv_write.values,
        result.density_matrix("time"),
        result.density_matrix("access"),
    )


def _timed_run(config, n_workers):
    protocol = MajorityConsensusProtocol(config.topology.total_votes)
    start = time.perf_counter()
    result = run_simulation(config, protocol, n_workers=n_workers)
    return time.perf_counter() - start, _aggregates(result)


def test_two_workers_on_two_cores(report):
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(f"PAR-SCALE needs 2 cores to mean anything; this host has {cores}")
    config = replace(
        PAPER_SCALE, n_batches=N_BATCHES,
    ).config(CHORDS, alpha=0.5, accounting="expected", seed=SEED)

    wall = {1: [], 2: []}
    for repeat in range(REPEATS):
        order = (1, 2) if repeat % 2 == 0 else (2, 1)
        aggregates = {}
        for n_workers in order:
            seconds, aggregates[n_workers] = _timed_run(config, n_workers)
            wall[n_workers].append(seconds)
        for serial_part, fanned_part in zip(aggregates[1], aggregates[2]):
            np.testing.assert_array_equal(np.asarray(serial_part),
                                          np.asarray(fanned_part))

    ratio = statistics.median(wall[1]) / statistics.median(wall[2])
    _BENCH_JSON.setdefault("parallel_scaling", []).append({
        "test": "par_scale",
        "cores": cores,
        "topology": CHORDS,
        "scale": "paper",
        "n_batches": N_BATCHES,
        "seed": SEED,
        "serial_s": [round(s, 2) for s in wall[1]],
        "two_workers_s": [round(s, 2) for s in wall[2]],
        "ratio_of_medians": round(ratio, 3),
        "bitwise_identical": True,
    })
    report(
        "=== PAR-SCALE: run_simulation, topology 4949, paper scale, "
        f"{N_BATCHES} batches ===\n"
        f"  cores            : {cores}\n"
        f"  1 worker  (s)    : {', '.join(f'{s:.1f}' for s in wall[1])}\n"
        f"  2 workers (s)    : {', '.join(f'{s:.1f}' for s in wall[2])}\n"
        f"  ratio of medians : {ratio:.2f}x (bitwise identical results)"
    )
    assert ratio >= MIN_RATIO, (
        f"2 workers only {ratio:.2f}x faster than 1 on {cores} cores")

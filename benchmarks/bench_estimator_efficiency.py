"""ABL-EFF: which road to the static figures' ±0.5 % is cheapest per CPU-second.

The paper's figures plot ``A(alpha, q_r)`` read off the component-vote
densities, and ask for a 95 % confidence half-width of at most ±0.5 %.
Three roads lead to those densities on a general topology: the event
simulator (``run_simulation``, ``expected`` accounting, one batch per
seed: batch means), iid state sampling (``montecarlo_density_matrix``)
and stratified state sampling (``stratified_density_matrix``). ROADMAP
item 1 asks which is cheapest; this bench answers with one number per
road, topology and figure point.

One *run* is one batch / one sample budget; its estimate of
``A(alpha, q_r)`` is read from its density matrix the same way for all
three. Over :data:`SEEDS` independent runs the half-width one run
attains is ``1.96 * std``, its cost the mean ``process_time``. Every
road's half-width falls as ``1 / sqrt(CPU)``, so the figure of merit is
``cpu_s * (half_width / 0.005) ** 2`` — CPU-seconds to the paper's
±0.5 % — which does not depend on the budget the runs happened to use.
The ring and the complete graph have closed forms, which give the truth
the seed means are reported against.

Ungated: nothing here asserts a speed. It prints the table (``-s``),
appends it to ``benchmarks/results.txt`` and takes under a minute.
"""

import statistics
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from conftest import _BENCH_JSON
from repro.analytic import closed_form_density
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.analytic.variance import stratified_density_matrix
from repro.experiments.paper import PAPER_RELIABILITY, ExperimentScale
from repro.protocols.majority import MajorityConsensusProtocol
from repro.quorum.availability import AvailabilityModel
from repro.simulation.runner import run_simulation
from repro.topology.generators import paper_topology

SEEDS = range(16)
TARGET_HALF_WIDTH = 0.005
ALPHAS = (0.25, 0.75)
#: Paper topologies with a closed form for the truth (``None``: none).
TOPOLOGIES = {0: "ring", 16: None, 4949: "complete"}
#: Sampled states per run.
N_SAMPLES = 4_000
#: One simulator run: one batch from the stationary state (no warm-up bias).
SIM_SCALE = ExperimentScale(
    name="abl-eff", n_sites=101, warmup_accesses=500.0,
    accesses_per_batch=30_000.0, n_batches=1, initial_state="stationary",
)


def _simulated(topology, seed):
    config = SIM_SCALE.config(0, alpha=0.5, accounting="expected", seed=seed,
                              topology=topology)
    result = run_simulation(
        config, MajorityConsensusProtocol(topology.total_votes))
    return result.density_matrix("time")


ROADS = {
    "simulator": _simulated,
    "montecarlo": lambda topology, seed: montecarlo_density_matrix(
        topology, PAPER_RELIABILITY, PAPER_RELIABILITY,
        n_samples=N_SAMPLES, seed=seed),
    "stratified": lambda topology, seed: stratified_density_matrix(
        topology, PAPER_RELIABILITY, PAPER_RELIABILITY,
        n_samples=N_SAMPLES, seed=seed),
}


def _points(total_votes):
    return [(alpha, q_r) for alpha in ALPHAS for q_r in (1, total_votes // 2)]


def _measure(road, topology):
    """Per figure point: the seed estimates; plus the mean CPU s of a run."""
    estimates = {point: [] for point in _points(topology.total_votes)}
    cpu = []
    for seed in SEEDS:
        start = process_time()
        matrix = ROADS[road](topology, seed)
        cpu.append(process_time() - start)
        model = AvailabilityModel.from_density_matrix(matrix)
        for alpha, q_r in estimates:
            estimates[alpha, q_r].append(float(model.availability(alpha, q_r)))
    return estimates, statistics.mean(cpu)


def test_cpu_seconds_to_the_papers_half_width(report):
    lines = [
        "=== ABL-EFF: CPU-seconds to a 95 % half-width of ±0.5 % on A(alpha, q_r) ===",
        f"  p = r = {PAPER_RELIABILITY}, {len(SEEDS)} seeds, process_time; a run is "
        f"{SIM_SCALE.accesses_per_batch:g} accesses (simulator) or "
        f"{N_SAMPLES} states (samplers)",
        "  cell: half-width of one run -> CPU s to ±0.5 % [seed mean - closed form]",
    ]
    rows = []
    for chords, family in TOPOLOGIES.items():
        topology = paper_topology(chords)
        truth = None
        if family is not None:
            row = closed_form_density(family, topology.n_sites,
                                      PAPER_RELIABILITY, PAPER_RELIABILITY)
            truth = AvailabilityModel(row, row)
        for road in ROADS:
            estimates, cpu_s = _measure(road, topology)
            cells = []
            for (alpha, q_r), values in estimates.items():
                half_width = 1.96 * statistics.stdev(values)
                to_target = cpu_s * (half_width / TARGET_HALF_WIDTH) ** 2
                bias = (statistics.mean(values) - float(truth.availability(alpha, q_r))
                        if truth is not None else None)
                rows.append({
                    "topology": chords, "road": road, "alpha": alpha, "q_r": q_r,
                    "half_width": half_width, "run_cpu_s": cpu_s,
                    "cpu_s_to_target": to_target, "mean_minus_truth": bias,
                })
                cells.append(
                    f"a={alpha:g} q_r={q_r}: {half_width:.4f} -> {to_target:.3g} s"
                    + (f" [{bias:+.4f}]" if bias is not None else ""))
            lines.append(f"  topology {chords:<4} {road:<10} run {cpu_s:6.3f} s  "
                         + "; ".join(cells))
    _BENCH_JSON.setdefault("estimator_efficiency", []).append({
        "test": "cpu_seconds_to_the_papers_half_width",
        "n_seeds": len(SEEDS), "n_samples": N_SAMPLES,
        "sim_accesses": SIM_SCALE.accesses_per_batch, "rows": rows,
    })
    report("\n".join(lines))
    assert all(np.isfinite(row["cpu_s_to_target"]) for row in rows)

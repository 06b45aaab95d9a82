"""MC-VAR: the variance-reduced Monte-Carlo density estimator (DESIGN.md §13).

At high-reliability operating points almost every sampled network state
is "everything up", so plain Monte Carlo spends its whole budget
re-measuring the known stratum and the rare failure states that
actually move the density estimate are visited a handful of times. The
stratified estimator conditions on the failure count (exact
Poisson-Binomial stratum weights, the all-up stratum evaluated
deterministically).

The figure of merit is *samples to a target CI half-width*: for an
estimator with per-seed spread ``std`` at ``n`` samples, hitting a
half-width ``h`` takes ``n * (std / h)^2`` samples, so the ratio of two
estimators' sample requirements is ``(std_plain / std)^2`` — the target
cancels. The gate: at ``p = 0.999`` the stratified estimator needs at
least **3x** fewer samples than plain MC for the same half-width (the
measured ratio is two orders of magnitude larger).
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from conftest import _BENCH_JSON, timed
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.analytic.variance import stratified_density_matrix
from repro.topology.generators import ring

N_SITES = 9
N_SAMPLES = 4_096
SEEDS = range(10)
RELIABILITIES = (0.9, 0.99, 0.999)

#: The scalar each estimator is judged on: the pooled probability that a
#: site sits in a component holding a vote majority (reads with a
#: majority quorum succeed exactly then). Linear in the density matrix,
#: so estimator unbiasedness carries over.
MAJORITY = N_SITES // 2 + 1

ESTIMATORS = {
    "plain": lambda p, seed: montecarlo_density_matrix(
        ring(N_SITES), p, p, n_samples=N_SAMPLES, seed=seed),
    "stratified": lambda p, seed: stratified_density_matrix(
        ring(N_SITES), p, p, n_samples=N_SAMPLES, seed=seed),
}

_STATE = {}


def _majority_mass(matrix):
    return float(np.mean(np.sum(matrix[:, MAJORITY:], axis=1)))


def _spread(name, p):
    """Across-seed sample stddev of the majority-mass estimate."""
    values = [_majority_mass(ESTIMATORS[name](p, seed)) for seed in SEEDS]
    return statistics.stdev(values)


def test_plain_mc(benchmark, report):
    matrix = timed(benchmark, lambda: ESTIMATORS["plain"](0.999, 0))
    report(f"=== MC-VAR: plain MC, p=0.999, n={N_SAMPLES} ===\n"
           f"  majority mass {_majority_mass(matrix):.6f}, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_stratified_mc(benchmark, report):
    matrix = timed(benchmark, lambda: ESTIMATORS["stratified"](0.999, 0))
    report(f"=== MC-VAR: stratified MC, p=0.999, n={N_SAMPLES} ===\n"
           f"  majority mass {_majority_mass(matrix):.6f}, "
           f"mean {benchmark.stats.stats.mean * 1e3:.0f}ms")


def test_variance_summary(report):
    rows = {}
    for p in RELIABILITIES:
        spreads = {name: _spread(name, p) for name in ESTIMATORS}
        plain = spreads["plain"]
        rows[str(p)] = {
            name: {
                "stddev": spread,
                # samples needed relative to plain MC for the same CI
                # half-width: (std_plain / std)^2, target cancels.
                "sample_efficiency_vs_plain": (
                    round((plain / spread) ** 2, 2)
                    if spread > 0 else float(len(SEEDS))
                ),
            }
            for name, spread in spreads.items()
        }
    _STATE["rows"] = rows
    _BENCH_JSON.setdefault("mc_variance", []).append({
        "test": "variance_summary",
        "n_samples": N_SAMPLES,
        "n_seeds": len(SEEDS),
        "reliabilities": rows,
    })
    lines = ["=== MC-VAR: summary (samples-to-target-CI vs plain MC) ==="]
    for p, row in rows.items():
        ratios = ", ".join(
            f"{name} {cell['sample_efficiency_vs_plain']:.1f}x"
            for name, cell in row.items() if name != "plain")
        lines.append(f"  p={p:<6}: {ratios}")
    report("\n".join(lines))
    # Acceptance floor (3x fewer samples at p = 0.999); stratification
    # clears it by two orders of magnitude.
    ratio = rows["0.999"]["stratified"]["sample_efficiency_vs_plain"]
    assert ratio >= 3.0, (
        f"stratified only {ratio:.2f}x more sample-efficient than plain "
        f"MC at p=0.999")

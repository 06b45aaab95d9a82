#!/usr/bin/env python
"""Quickstart: find the optimal quorum assignment for a replicated item.

Walks the paper's Figure-1 algorithm end to end on a 25-site network:

1. obtain the component-size density ``f_i(v)`` (analytically here;
   ``examples/optimal_quorum_campaign.py`` shows the on-line way),
2. build the availability model ``A(alpha, q_r)``,
3. optimize the read quorum for your workload's read fraction,
4. sanity-check the choice against a direct discrete-event simulation.

Run:  python examples/quickstart.py
"""

import sys

from repro import (
    AvailabilityModel,
    MajorityConsensusProtocol,
    QuorumConsensusProtocol,
    complete_density,
    optimal_read_quorum,
    ring_density,
    run_simulation,
)
from repro.cli import run_script
from repro.simulation.config import SimulationConfig
from repro.topology.generators import ring

N_SITES = 25
SITE_RELIABILITY = 0.96
LINK_RELIABILITY = 0.96
ALPHA = 0.75  # three quarters of all accesses are reads


def main() -> None:
    print("=== optimal quorum assignment, analytically ===")
    for name, density in [
        ("fully connected", complete_density(N_SITES, SITE_RELIABILITY, LINK_RELIABILITY)),
        ("ring", ring_density(N_SITES, SITE_RELIABILITY, LINK_RELIABILITY)),
    ]:
        model = AvailabilityModel(density, density)
        best = optimal_read_quorum(model, alpha=ALPHA)
        print(
            f"{name:>16s}: best assignment {best.assignment} "
            f"-> availability {best.availability:.4f}"
        )
        majority = float(model.availability(ALPHA, model.max_read_quorum))
        print(f"{'':>16s}  (majority consensus would give {majority:.4f})")

    print()
    print("=== verify by simulation (ring) ===")
    topo = ring(N_SITES)
    config = SimulationConfig.paper_like(
        topo,
        alpha=ALPHA,
        warmup_accesses=1_000,
        accesses_per_batch=20_000,
        n_batches=4,
        seed=0,
    )
    density = ring_density(N_SITES, SITE_RELIABILITY, LINK_RELIABILITY)
    model = AvailabilityModel(density, density)
    best = optimal_read_quorum(model, alpha=ALPHA)

    measured_best = run_simulation(config, QuorumConsensusProtocol(best.assignment))
    measured_majority = run_simulation(config, MajorityConsensusProtocol(N_SITES))
    print(f"optimal  {best.assignment}: {measured_best.availability}")
    print(f"majority              : {measured_majority.availability}")
    gain = measured_best.availability.mean - measured_majority.availability.mean
    print(f"measured gain from optimal assignment: {gain:+.4f}")


if __name__ == "__main__":
    sys.exit(run_script(main))

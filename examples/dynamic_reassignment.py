#!/usr/bin/env python
"""Dynamic quorum reassignment (QR protocol) adapting to a workload shift.

Scenario: a 21-site chorded ring serves a write-heavy workload
(``alpha = 0.25``) and later shifts to read-heavy (``alpha = 0.9``).
A static assignment must compromise; the QR protocol re-optimizes from
the on-line density estimate (with exponential forgetting, section 4.3)
and installs new quorums through the version-number mechanism of
section 2.2 — never from a component lacking a write quorum under the
old assignment.

The example prints measured availability for three strategies:

- static majority consensus,
- static optimal-for-phase-1,
- QR with on-line re-optimization.

Run:  python examples/dynamic_reassignment.py
"""

import sys

from repro.cli import run_script
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation
from repro.topology.generators import ring_with_chords

TOPOLOGY = ring_with_chords(21, 2)
T = TOPOLOGY.total_votes
PHASES = ((0.25, 0), (0.9, 1))  # (alpha, phase seed)
ACCESSES_PER_PHASE = 20_000.0


def phase_config(alpha: float, seed: int) -> SimulationConfig:
    return SimulationConfig.paper_like(
        TOPOLOGY,
        alpha=alpha,
        warmup_accesses=500.0,
        accesses_per_batch=ACCESSES_PER_PHASE,
        n_batches=3,
        seed=seed,
    )


def run_static(protocol_factory) -> float:
    total = 0.0
    for alpha, seed in PHASES:
        res = run_simulation(phase_config(alpha, seed), protocol_factory())
        total += res.availability.mean
    return total / len(PHASES)


def run_dynamic() -> tuple[float, int]:
    total = 0.0
    installs = 0
    for alpha, seed in PHASES:
        protocol = QuorumReassignmentProtocol(T, QuorumAssignment.majority(T))
        estimator = OnlineDensityEstimator(TOPOLOGY.n_sites, T, forgetting_factor=0.999)

        def observer(time, tracker, proto, alpha=alpha):
            estimator.observe_all(tracker.vote_totals, weight=1.0)
            if estimator.total_weight < 30 * TOPOLOGY.n_sites:
                return
            model = AvailabilityModel.from_density_matrix(estimator.density_matrix())
            best = optimal_read_quorum(model, alpha=alpha)
            current = proto.effective_assignment(tracker, 0)
            if current is not None and best.assignment != current:
                proto.try_reassign(tracker, 0, best.assignment)

        res = run_simulation(phase_config(alpha, seed), protocol,
                             change_observer=observer)
        total += res.availability.mean
        installs += protocol.installs
    return total / len(PHASES), installs


def main() -> None:
    print(f"topology: {TOPOLOGY.name}, phases: alpha = "
          + ", ".join(str(a) for a, _ in PHASES))

    acc_majority = run_static(lambda: MajorityConsensusProtocol(T))
    print(f"static majority consensus      : {acc_majority:.4f}")

    # Static assignment tuned for the write-heavy phase only.
    phase1_alpha = PHASES[0][0]
    from repro.analytic.ring import ring_density

    # Use the ring closed form as the off-line model a static deployment
    # would have used (ignores the chords - exactly the kind of modelling
    # gap section 4.3 warns about).
    f = ring_density(T, 0.96, 0.96)
    static_best = optimal_read_quorum(AvailabilityModel(f, f), alpha=phase1_alpha)
    acc_static = run_static(lambda: QuorumConsensusProtocol(static_best.assignment))
    print(f"static optimal-for-phase-1 {static_best.assignment}: {acc_static:.4f}")

    acc_dynamic, installs = run_dynamic()
    print(f"QR dynamic reassignment        : {acc_dynamic:.4f} "
          f"({installs} reassignments installed)")


if __name__ == "__main__":
    sys.exit(run_script(main))

"""QR-DYN: value of dynamic quorum reassignment (sections 2.2, 4.3).

Compares measured availability of three deployments on a read-heavy
sparse network:

- static majority consensus (what a write-only analysis would install),
- static optimal (the Figure-1 optimum installed up front),
- QR dynamic: starts at majority, estimates ``f_i`` on-line, and installs
  the optimizer's choice through the version-number protocol while the
  network keeps failing.

The paper's claim: the techniques "can greatly increase data
availability"; the dynamic protocol must recover (nearly) all of the
static-optimal gain without being told the density in advance.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import timed
from repro.analytic.ring import ring_density
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation
from repro.topology.generators import ring

N = 31
ALPHA = 0.9


def make_config(scale):
    return SimulationConfig.paper_like(
        ring(N),
        alpha=ALPHA,
        warmup_accesses=500.0,
        accesses_per_batch=min(scale.accesses_per_batch * 2, 60_000.0),
        n_batches=3,
        seed=31,
    )


def test_dynamic_reassignment_value(benchmark, report, scale):
    cfg = make_config(scale)

    static_majority = run_simulation(cfg, MajorityConsensusProtocol(N))

    f = ring_density(N, 0.96, 0.96)
    oracle = optimal_read_quorum(AvailabilityModel(f, f), ALPHA)
    static_optimal = run_simulation(cfg, QuorumConsensusProtocol(oracle.assignment))

    def run_dynamic():
        protocol = QuorumReassignmentProtocol(N, QuorumAssignment.majority(N))
        estimator = OnlineDensityEstimator(N, N)

        def observer(time, tracker, proto):
            estimator.observe_all(tracker.vote_totals, weight=1.0)
            if estimator.total_weight < 40 * N:
                return
            model = AvailabilityModel.from_density_matrix(estimator.density_matrix())
            best = optimal_read_quorum(model, ALPHA)
            current = proto.effective_assignment(tracker, 0)
            if current is not None and best.assignment != current:
                proto.try_reassign(tracker, 0, best.assignment)

        return run_simulation(cfg, protocol, change_observer=observer), protocol

    dynamic, protocol = timed(benchmark, run_dynamic)

    a_maj = static_majority.availability.mean
    a_opt = static_optimal.availability.mean
    a_dyn = dynamic.availability.mean
    report(
        "=== QR-DYN: dynamic reassignment on a read-heavy 31-site ring ===\n"
        f"alpha = {ALPHA}\n"
        f"static majority : {static_majority.availability}\n"
        f"static optimal  : {static_optimal.availability}  "
        f"(oracle {oracle.assignment})\n"
        f"QR dynamic      : {dynamic.availability}  "
        f"({protocol.installs} installs)\n"
        f"gain dynamic - majority: {a_dyn - a_maj:+.4f} "
        f"(static-optimal gain {a_opt - a_maj:+.4f})"
    )
    assert protocol.installs >= 1
    # Dynamic must capture most of the optimal gain.
    assert a_dyn - a_maj > 0.5 * (a_opt - a_maj) > 0.0

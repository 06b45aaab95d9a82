"""ADAPT-LOOP: the paper's full on-line loop, end to end.

The headline system claim: a deployment that starts with majority
consensus and *no model of anything* — not the topology density, not the
read fraction — converges to near-optimal availability purely from
observations made during normal transaction processing, and keeps
tracking when the workload shifts (section 4.3).

Protocols compared on identical failure streams (same seeds):

- static majority (the uninformed baseline),
- static oracle-optimal (Figure 1 on the true analytic density — the
  ceiling for any quorum-consensus deployment),
- adaptive (AdaptiveQuorumProtocol: learns alpha, r_i, w_i, f_i on-line
  and reassigns through the QR protocol).

Phase 2 flips the workload from read-heavy to write-heavy mid-benchmark;
the adaptive protocol must follow while both static deployments are
stuck with their phase-1 choices. Every batch restarts the protocol
(``reset()``): it relearns from majority with empty estimates, so the
forgetting factor acts within a batch only, and ``adaptive.installs``
holds the last batch's count. The installs reported here are the
``repro_adaptive_installs_total`` counter summed over every batch.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import timed
from repro.analytic.ring import ring_density
from repro.protocols.adaptive import AdaptiveQuorumProtocol
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation
from repro.telemetry.recorder import Telemetry
from repro.topology.generators import ring

N = 31
PHASES = ((0.9, 100), (0.1, 200))  # (alpha, seed)


def phase_config(alpha: float, seed: int, scale) -> SimulationConfig:
    return SimulationConfig.paper_like(
        ring(N),
        alpha=alpha,
        warmup_accesses=0.0,
        accesses_per_batch=min(scale.accesses_per_batch * 2, 30_000.0),
        n_batches=2,
        initial_state="stationary",
        seed=seed,
    )


def test_adaptive_loop(benchmark, report, scale):
    truth = ring_density(N, 0.96, 0.96)
    oracle_model = AvailabilityModel(truth, truth)

    def run_all():
        rows = {}
        for label, factory in (
            ("static majority", lambda a: MajorityConsensusProtocol(N)),
            ("static oracle", lambda a: QuorumConsensusProtocol(
                optimal_read_quorum(oracle_model, a).assignment)),
        ):
            accs = []
            for alpha, seed in PHASES:
                # The oracle gets phase-1 knowledge only: a static
                # deployment cannot retune mid-stream.
                protocol = factory(PHASES[0][0])
                res = run_simulation(phase_config(alpha, seed, scale), protocol)
                accs.append(res.availability.mean)
            rows[label] = accs

        adaptive = AdaptiveQuorumProtocol(
            N, N,
            min_observation_weight=40.0 * N,
            improvement_threshold=0.005,
            forgetting_factor=0.999,
        )
        accs = []
        installs = 0
        for alpha, seed in PHASES:
            res = run_simulation(phase_config(alpha, seed, scale), adaptive,
                                 telemetry=Telemetry())
            accs.append(res.availability.mean)
            installs += res.telemetry.counter_value("repro_adaptive_installs_total")
        rows["adaptive (on-line)"] = accs
        rows["_installs"] = installs
        return rows

    rows = timed(benchmark, run_all)
    installs = rows.pop("_installs")

    lines = [
        "=== ADAPT-LOOP: on-line loop vs static deployments (31-site ring) ===",
        f"  phase 1: alpha = {PHASES[0][0]}   phase 2: alpha = {PHASES[1][0]}",
        "  deployment            phase-1 ACC   phase-2 ACC   mean",
    ]
    for label, accs in rows.items():
        lines.append(
            f"  {label:<20s}  {accs[0]:11.4f}   {accs[1]:11.4f}   {sum(accs)/2:.4f}"
        )
    lines.append(f"  adaptive reassignments installed: {installs:.0f}")
    report("\n".join(lines))

    adaptive_mean = sum(rows["adaptive (on-line)"]) / 2
    majority_mean = sum(rows["static majority"]) / 2
    oracle_mean = sum(rows["static oracle"]) / 2
    assert installs >= 1
    # The adaptive loop beats uninformed majority...
    assert adaptive_mean > majority_mean + 0.02
    # ...and beats the phase-1-tuned static deployment across the shift.
    assert adaptive_mean > oracle_mean - 0.02

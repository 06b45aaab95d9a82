#!/usr/bin/env python
"""Paired protocol comparison over one failure history.

Runs every replica-control protocol in the library — static quorum
consensus at several assignments, primary copy, and dynamic voting — on
one simulation config of the paper's Topology 2 (101-site ring plus 2
chords). A batch's failure history depends on ``(seed, batch)`` alone,
so every protocol sees the *identical* history and differences in
availability are purely protocol effects, with zero failure-process
variance (common random numbers at their strongest).

Run:  python examples/protocol_shootout.py [--alpha 0.5]
"""

import argparse
import sys

from repro.cli import run_script
from repro.protocols.dynamic_voting import DynamicVotingProtocol
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.primary_copy import PrimaryCopyProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation
from repro.topology.generators import ring_with_chords

N_SITES = 101
CHORDS = 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--accesses", type=float, default=20_000.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    topology = ring_with_chords(N_SITES, CHORDS)
    T = topology.total_votes
    config = SimulationConfig.paper_like(
        topology,
        alpha=args.alpha,
        warmup_accesses=0.0,
        accesses_per_batch=args.accesses,
        n_batches=1,
        initial_state="stationary",
        seed=args.seed,
    ).with_accounting("expected")

    contenders = [
        ("majority consensus", MajorityConsensusProtocol(T)),
        ("read-one/write-all", ReadOneWriteAllProtocol(T)),
        ("q_r=5  (q_w=97)", QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(T, 5))),
        ("q_r=25 (q_w=77)", QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(T, 25))),
        ("primary copy @0", PrimaryCopyProtocol(0)),
        ("dynamic voting", DynamicVotingProtocol(N_SITES)),
    ]

    print(f"time-weighted ACC at alpha = {args.alpha} on {topology.name}, "
          f"~{args.accesses:.0f} accesses of simulated time, the SAME history "
          f"for every protocol:")
    results = []
    for name, protocol in contenders:
        batch = run_simulation(config, protocol).batches[0]
        results.append((batch.availability, name))
        print(f"  {name:<22s} {batch.availability:.4f}")
    print(f"history: {batch.n_events} events over {batch.measured_time:.1f} "
          f"time units")

    best = max(results)
    print(f"\nwinner on this history: {best[1]} ({best[0]:.4f})")


if __name__ == "__main__":
    sys.exit(run_script(main))

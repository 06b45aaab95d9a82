#!/usr/bin/env python
"""Per-item quorum tuning in a multi-item replicated database.

A 9-site chorded ring hosts three items with different workloads, each
tuned with the Figure-1 algorithm for its own read fraction:

- ``catalog``  (alpha = 0.95, read-mostly)   -> small read quorum,
- ``ledger``   (alpha = 0.10, write-heavy)   -> majority quorums,
- ``config``   (partially replicated at 3 sites, alpha = 0.5).

The script computes each item's optimal assignment from the analytic
density, builds a :class:`repro.MultiItemDatabase`, and then walks a
partition scenario showing items with different quorum geometries making
different grant decisions over the *same* network state — including an
all-or-nothing transaction that aborts because one item's quorum fails.

Run:  python examples/multi_item_database.py
"""

import numpy as np

from repro import (
    AvailabilityModel,
    ItemBinding,
    MultiItemDatabase,
    QuorumConsensusProtocol,
    ReplicatedItem,
    optimal_read_quorum,
)
from repro.analytic.montecarlo import montecarlo_density_matrix
from repro.topology.generators import ring_with_chords

N = 9
P = R = 0.93


def tune(name: str, alpha: float, votes: np.ndarray, topology,
         seed: int) -> QuorumConsensusProtocol:
    """Figure-1 tuning for one item's vote geometry and read mix."""
    matrix = montecarlo_density_matrix(
        topology.with_votes(votes), P, R, n_samples=4_000, seed=seed
    )
    model = AvailabilityModel.from_density_matrix(matrix)
    best = optimal_read_quorum(model, alpha)
    print(f"  {name:<8s} alpha={alpha:4.2f} -> {best.assignment} "
          f"(predicted A = {best.availability:.3f})")
    return QuorumConsensusProtocol(best.assignment)


def main() -> None:
    topology = ring_with_chords(N, 1)
    print(f"network: {topology.name}, p = r = {P}\n")
    print("per-item Figure-1 tuning:")

    catalog_item = ReplicatedItem.fully_replicated("catalog", topology)
    ledger_item = ReplicatedItem.fully_replicated("ledger", topology)
    config_item = ReplicatedItem.at_sites("config", [0, 3, 6])

    db = MultiItemDatabase(
        topology,
        [
            ItemBinding(catalog_item, tune("catalog", 0.95,
                                           catalog_item.votes_vector(N), topology, seed=1),
                        initial_value={"skus": 0}),
            ItemBinding(ledger_item, tune("ledger", 0.10,
                                          ledger_item.votes_vector(N), topology, seed=2),
                        initial_value=0),
            ItemBinding(config_item, tune("config", 0.50,
                                          config_item.votes_vector(N), topology, seed=3),
                        initial_value="v0"),
        ],
    )

    print("\nhealthy network: multi-item transaction (read catalog, bump ledger):")
    result = db.transaction(4, reads=["catalog"], writes={"ledger": 100})
    print(f"  committed = {result.committed}; ledger ts = {result.writes['ledger'].timestamp}")

    print("\npartition the network (cut 0-1, 4-5, and the 0-4 chord):")
    db.fail_link(0, 1)
    db.fail_link(4, 5)
    db.fail_link(0, 4)   # the chord would otherwise bridge the cuts
    for item in ("catalog", "ledger", "config"):
        small = db.read(item, 2)   # small fragment
        large = db.read(item, 7)   # large fragment
        print(f"  read {item:<8s} @2: {small.outcome.value:<10s} "
              f"@7: {large.outcome.value}")

    print("\nall-or-nothing: transaction touching catalog AND ledger in the "
          "small fragment:")
    result = db.transaction(2, reads=["catalog"], writes={"ledger": 999})
    print(f"  committed = {result.committed} "
          f"(blocked by {result.blocking_item!r}) — catalog read was NOT applied")

    print("\nheal and verify the ledger never took the aborted write:")
    db.repair_link(0, 1)
    db.repair_link(4, 5)
    db.repair_link(0, 4)
    print(f"  ledger @2 after heal: {db.read('ledger', 2).value}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Drive the replicated-database data path through a partition and heal.

A 7-site ring holds one replicated item under quorum consensus
(``q_r = 2``, ``q_w = 6``). The script scripts a link-failure partition,
shows which sides can still read and write, demonstrates that a write in
the majority side leaves a stale copy behind, and that after the heal
every read — even at the stale site — returns the newest value because
quorum intersection forces overlap with the write set. The database's
built-in one-copy-serializability checker verifies every step.

Run:  python examples/replicated_database_demo.py
"""

import sys
from typing import Dict

from repro.cli import run_script
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.replication.database import AccessResult, ReplicatedDatabase
from repro.topology.generators import ring


#: Outcome tally, ``"op:outcome"`` -> count, in first-seen order.
TALLY: Dict[str, int] = {}


def show(action: str, result: AccessResult) -> None:
    key = f"{result.op}:{result.outcome.value}"
    TALLY[key] = TALLY.get(key, 0) + 1
    status = "GRANTED" if result.granted else f"DENIED ({result.outcome.value})"
    extra = ""
    if result.granted and result.op == "read":
        extra = f" -> {result.value!r} (ts {result.timestamp})"
    print(f"  {action:<28s} {status}{extra}")


def main() -> None:
    topo = ring(7)
    assignment = QuorumAssignment.from_read_quorum(7, 2)  # q_w = 6
    db = ReplicatedDatabase(
        topo, QuorumConsensusProtocol(assignment), initial_value="genesis"
    )
    print(f"ring of 7 sites, quorums {assignment}")

    print("\nhealthy network:")
    show("read @ site 0", db.submit_read(0))
    show("write 'v1' @ site 3", db.submit_write(3, "v1"))

    print("\npartition: cut links 0-1 and 4-5 -> {1..4} (4 votes) vs {5,6,0} (3 votes)")
    db.fail_link(0, 1)
    db.fail_link(4, 5)
    show("read @ site 2  (4 votes)", db.submit_read(2))
    show("write @ site 2 (4 < q_w)", db.submit_write(2, "lost-update?"))
    show("read @ site 6  (3 votes)", db.submit_read(6))

    print("\nheal one link; majority side {1..4,5,6,0 minus cut}:")
    db.repair_link(0, 1)  # component {5,6,0,1,2,3,4} minus 4-5 cut = all 7
    show("write 'v2' @ site 1", db.submit_write(1, "v2"))

    print("\ncut the ring again around site 4, isolating it:")
    db.fail_link(3, 4)
    # site 4's neighbours are 3 and 5; 4-5 is already down -> isolated.
    show("read @ site 4 (1 vote)", db.submit_read(4))
    show("write 'v3' @ site 0 (6 votes)", db.submit_write(0, "v3"))
    print(f"  stale copy at site 4: {db.copies[4].value!r} "
          f"(ts {db.copies[4].timestamp})")

    print("\nfull heal; the stale site reads through the quorum:")
    db.repair_link(4, 5)
    db.repair_link(3, 4)
    show("read @ site 4", db.submit_read(4))

    print("\noutcome tally:", TALLY)
    print("one-copy serializability checker: no violations raised")


if __name__ == "__main__":
    sys.exit(run_script(main))

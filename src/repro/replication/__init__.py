"""Replicated-database substrate: real reads and writes over the protocols.

The availability machinery elsewhere in the library only counts grants
and denials; this package executes the *data path* — a copy of the item
at every site with a version timestamp, quorum reads that return the
newest copy in the component, quorum writes that install a new version
at every reachable copy — and checks one-copy serializability on every
operation (each granted read must return the value of the most recent
granted write). It is the machinery the QR safety tests drive.
"""

from repro.replication.database import (
    AccessOutcome,
    AccessResult,
    CopyState,
    ReplicatedDatabase,
)

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "CopyState",
    "ReplicatedDatabase",
]

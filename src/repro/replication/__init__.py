"""Replicated-database substrate: real reads and writes over the protocols.

The availability machinery elsewhere in the library only counts grants
and denials; this package executes the *data path* — per-site copies with
version timestamps, quorum reads that return the newest copy in the
component, quorum writes that install a new version at every reachable
copy — and checks one-copy serializability on every operation (each
granted read must return the value of the most recent granted write).
This is what turns the reproduction into a distributed-database library
rather than a probability calculator, and it is the machinery the QR
safety tests drive.
"""

from repro.replication.store import CopyState, SiteStore
from repro.replication.item import ReplicatedItem
from repro.replication.transaction import (
    AccessOutcome,
    ReadResult,
    WriteResult,
)
from repro.replication.database import ReplicatedDatabase

__all__ = [
    "AccessOutcome",
    "CopyState",
    "ReadResult",
    "ReplicatedDatabase",
    "ReplicatedItem",
    "SiteStore",
    "WriteResult",
]

"""Replicated data item descriptor.

An item names which sites hold copies and how many votes each copy
carries. The paper's evaluation replicates one item at every site with
one vote per copy; partial replication is expressed by listing only a
subset of sites (non-replica sites can still *submit* accesses — they
just contribute no votes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError, VoteAssignmentError
from repro.topology.model import Topology

__all__ = ["ReplicatedItem"]


@dataclass(frozen=True)
class ReplicatedItem:
    """Identity, placement, and vote weights of one replicated item."""

    item_id: str
    replica_sites: Tuple[int, ...]
    replica_votes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.item_id:
            raise ReproError("item_id must be non-empty")
        if not self.replica_sites:
            raise ReproError(f"item {self.item_id!r} needs at least one replica")
        if len(self.replica_sites) != len(self.replica_votes):
            raise VoteAssignmentError(
                f"item {self.item_id!r}: {len(self.replica_sites)} sites but "
                f"{len(self.replica_votes)} vote entries"
            )
        if min(self.replica_sites) < 0:
            raise ReproError(
                f"item {self.item_id!r} lists a negative replica site "
                f"{min(self.replica_sites)}"
            )
        if len(set(self.replica_sites)) != len(self.replica_sites):
            raise ReproError(f"item {self.item_id!r} lists a replica site twice")
        if any(v < 0 for v in self.replica_votes):
            raise VoteAssignmentError("replica votes must be non-negative")
        if sum(self.replica_votes) <= 0:
            raise VoteAssignmentError("total votes must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def fully_replicated(cls, item_id: str, topology: Topology) -> "ReplicatedItem":
        """A copy at every site, votes taken from the topology (paper default)."""
        return cls(
            item_id,
            tuple(topology.sites()),
            tuple(int(v) for v in topology.votes),
        )

    @classmethod
    def at_sites(
        cls, item_id: str, sites: Sequence[int], votes: Optional[Sequence[int]] = None
    ) -> "ReplicatedItem":
        """Partial replication with uniform (or explicit) votes."""
        sites_t = tuple(int(s) for s in sites)
        votes_t = tuple(int(v) for v in votes) if votes is not None else (1,) * len(sites_t)
        return cls(item_id, sites_t, votes_t)

    # ------------------------------------------------------------------
    @property
    def total_votes(self) -> int:
        return int(sum(self.replica_votes))

    def votes_vector(self, n_sites: int) -> np.ndarray:
        """Dense per-site vote vector (zeros at non-replica sites)."""
        if max(self.replica_sites) >= n_sites:
            raise ReproError(
                f"item {self.item_id!r} has a replica at site "
                f"{max(self.replica_sites)}, outside a {n_sites}-site network"
            )
        votes = np.zeros(n_sites, dtype=np.int64)
        for site, v in zip(self.replica_sites, self.replica_votes):
            votes[site] = v
        return votes

    def holds_copy(self, site: int) -> bool:
        return site in self.replica_sites

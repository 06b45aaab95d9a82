"""Multi-item replicated database: per-item placement, votes, and quorums.

A real distributed database replicates many items, and the Figure-1
algorithm naturally tunes each item separately — a read-mostly catalog
wants ``q_r = 1``, a write-heavy ledger wants majority, and partially
replicated items carry their own vote geometry. This module composes
single-item databases:

- one :class:`~repro.replication.database.ReplicatedDatabase` per item,
  built on the topology with that item's vote vector, so every item has
  the one data path (decision view, 1SR checker, audit);
- every failure and repair forwarded to all of them, so all items see
  the same partitions;
- multi-item transactions: an all-or-nothing group of reads/writes that
  commits iff *every* touched item's quorum is satisfied at the
  submitting site. Under the paper's instantaneous-event model no
  failure can interleave with a transaction, so atomic commitment needs
  no 2PC machinery — the decision is simply the conjunction of the
  per-item decisions, evaluated against one frozen network state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ReproError
from repro.protocols.base import ReplicaControlProtocol
from repro.replication.database import ReplicatedDatabase
from repro.replication.item import ReplicatedItem
from repro.replication.transaction import AccessOutcome, ReadResult, WriteResult
from repro.topology.model import Topology

__all__ = ["ItemBinding", "TransactionResult", "MultiItemDatabase"]


@dataclass(frozen=True)
class ItemBinding:
    """One item's configuration inside a multi-item database."""

    item: ReplicatedItem
    protocol: ReplicaControlProtocol
    initial_value: Any = None


@dataclass(frozen=True)
class TransactionResult:
    """Outcome of an all-or-nothing multi-item transaction."""

    outcome: AccessOutcome
    site: int
    #: Per-item results, populated only when the transaction committed.
    reads: Mapping[str, ReadResult] = None  # type: ignore[assignment]
    writes: Mapping[str, WriteResult] = None  # type: ignore[assignment]
    #: Item that caused the denial (None for SITE_DOWN or on commit).
    blocking_item: Optional[str] = None

    @property
    def committed(self) -> bool:
        return self.outcome is AccessOutcome.GRANTED


class MultiItemDatabase:
    """Several replicated items over one fallible network."""

    def __init__(self, topology: Topology, bindings: Sequence[ItemBinding]) -> None:
        if not bindings:
            raise ReproError("need at least one item binding")
        ids = [b.item.item_id for b in bindings]
        if len(set(ids)) != len(ids):
            raise ReproError(f"duplicate item ids in {ids}")
        self.topology = topology
        self._dbs: Dict[str, ReplicatedDatabase] = {}
        for binding in bindings:
            item = binding.item
            self._dbs[item.item_id] = ReplicatedDatabase(
                topology.with_votes(item.votes_vector(topology.n_sites)),
                binding.protocol,
                item=item,
                initial_value=binding.initial_value,
                record_history=False,
            )
        #: The network state; every item's database holds an identical one.
        self.state: NetworkState = self._dbs[ids[0]].state

    # ------------------------------------------------------------------
    @property
    def item_ids(self) -> List[str]:
        return list(self._dbs)

    def tracker_for(self, item_id: str) -> ComponentTracker:
        self._check_item(item_id)
        return self._dbs[item_id].tracker

    def _check_item(self, item_id: str) -> None:
        if item_id not in self._dbs:
            raise ReproError(f"unknown item {item_id!r}")

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.topology.n_sites:
            raise ReproError(f"unknown site {site}")

    # ------------------------------------------------------------------
    # Network control: forwarded to every item's database
    # ------------------------------------------------------------------
    def fail_site(self, site: int) -> None:
        for db in self._dbs.values():
            db.fail_site(site)

    def repair_site(self, site: int) -> None:
        for db in self._dbs.values():
            db.repair_site(site)

    def fail_link(self, a: int, b: int) -> None:
        for db in self._dbs.values():
            db.fail_link(a, b)

    def repair_link(self, a: int, b: int) -> None:
        for db in self._dbs.values():
            db.repair_link(a, b)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def read(self, item_id: str, site: int) -> ReadResult:
        """Single-item read (a one-read transaction)."""
        result = self.transaction(site, reads=[item_id])
        if result.committed:
            return result.reads[item_id]
        return ReadResult(result.outcome, site, 0.0)

    def write(self, item_id: str, site: int, value: Any) -> WriteResult:
        """Single-item write (a one-write transaction)."""
        result = self.transaction(site, writes={item_id: value})
        if result.committed:
            return result.writes[item_id]
        return WriteResult(result.outcome, site, 0.0)

    def transaction(
        self,
        site: int,
        reads: Sequence[str] = (),
        writes: Optional[Mapping[str, Any]] = None,
    ) -> TransactionResult:
        """All-or-nothing multi-item transaction submitted at ``site``.

        Commits iff the submitting site is up and *every* touched item's
        protocol grants its operation in the current (frozen) network
        state; otherwise nothing is applied and the blocking item is
        reported.
        """
        writes = dict(writes or {})
        self._check_site(site)
        read_ids = list(reads)
        for item_id in read_ids + list(writes):
            self._check_item(item_id)
        if not read_ids and not writes:
            raise ReproError("a transaction must touch at least one item")
        overlap = set(read_ids) & set(writes)
        if overlap:
            raise ReproError(
                f"items {sorted(overlap)} appear as both read and write; "
                "a write subsumes the read"
            )

        if not self.state.site_up[site]:
            return TransactionResult(AccessOutcome.SITE_DOWN, site)

        # Decision phase: conjunction over all touched items.
        dbs = self._dbs
        touched = [(i, True) for i in read_ids] + [(i, False) for i in writes]
        for item_id, is_read in touched:
            db = dbs[item_id]
            if not db.protocol.decide(site, is_read, db.tracker):
                return TransactionResult(
                    AccessOutcome.NO_QUORUM, site, blocking_item=item_id
                )

        # Execution phase: no event can interleave (instantaneous model),
        # so applying sequentially is atomic, and every item's database
        # grants again what its protocol just granted.
        read_results = {i: dbs[i].submit_read(site) for i in read_ids}
        write_results = {
            i: dbs[i].submit_write(site, value) for i, value in writes.items()
        }
        return TransactionResult(
            AccessOutcome.GRANTED, site, reads=read_results, writes=write_results
        )

    # ------------------------------------------------------------------
    def copy_at(self, item_id: str, site: int):
        """Inspect one raw copy (tests/debugging)."""
        self._check_item(item_id)
        return self._dbs[item_id].copy_at(site)

"""Dynamic voting (Jajodia & Mutchler), the paper's reference [12, 13].

The QR protocol of section 2.2 borrows its version-number machinery from
the dynamic *vote* reassignment literature; this module implements the
best-known member of that family as a comparison protocol.

State per copy ``i``:

- ``VN_i`` — version number: how many (reconfiguring) writes copy ``i``
  has seen;
- ``SC_i`` — update-sites cardinality: the size of the participant set
  of the most recent write copy ``i`` knows about;
- for the *dynamic-linear* variant, ``DS_i`` — the distinguished site of
  that write (the highest site id among its participants), used to break
  exact-half ties.

A component ``C`` is **distinguished** iff, with ``M = max VN over C``,
``I = {i in C : VN_i = M}`` and ``N = SC`` of any member of ``I``:

- ``|I| > N/2``, or
- (linear variant) ``|I| = N/2`` and the distinguished site ``DS`` is in
  ``I`` — the classic tie-breaker that lets *half* of the previous
  participant set continue.

Accesses (reads and writes alike — the dynamic voting literature does
not split the quorum) are granted only in the distinguished component.
A write there installs ``VN = M+1``, ``SC = |C|``, ``DS = max(C)`` at
every member.

**Timing model.** Real dynamic voting updates state on every write; the
engine's epoch accounting instead lets the protocol refresh its state at
every topology change via :meth:`on_network_change`. With the paper's
access-to-failure ratio (``rho = 1/128`` at 101 sites, i.e. hundreds of
accesses per epoch and ``alpha < 1``) at least one write lands in every
epoch with overwhelming probability, so "a write happens once per epoch
in the distinguished component" is the standard Markov-model treatment
of dynamic voting (state transitions at reconfiguration instants).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import ProtocolError
from repro.protocols.base import ReplicaControlProtocol

__all__ = ["DynamicVotingProtocol"]


class DynamicVotingProtocol(ReplicaControlProtocol):
    """Dynamic(-linear) voting over one copy per site."""

    def __init__(self, n_sites: int, linear: bool = True) -> None:
        if n_sites <= 0:
            raise ProtocolError(f"need at least one site, got {n_sites}")
        self.n_sites = int(n_sites)
        self.linear = bool(linear)
        self.name = f"dynamic-{'linear-' if linear else ''}voting(n={n_sites})"
        self.reset()

    def reset(self) -> None:
        """All copies participated in a notional initial write."""
        self.version = np.zeros(self.n_sites, dtype=np.int64)
        self.cardinality = np.full(self.n_sites, self.n_sites, dtype=np.int64)
        self.distinguished_site = np.full(self.n_sites, self.n_sites - 1,
                                          dtype=np.int64)
        #: Writes that changed the participant set (observability).
        self.reconfigurations = 0

    # ------------------------------------------------------------------
    def distinguished_component(self, tracker: ComponentTracker) -> Optional[np.ndarray]:
        """Member sites of the distinguished component, or ``None``.

        At most one component can satisfy the rule: two disjoint sets
        cannot both hold more than half (or the tie-breaking half) of the
        same last participant set, and components with stale versions
        lack the newest participants entirely.
        """
        labels = tracker.labels
        up = labels >= 0
        if not up.any():
            return None
        for label in range(int(labels.max()) + 1):
            members = np.nonzero(labels == label)[0]
            if self._is_distinguished(members):
                return members
        return None

    def _is_distinguished(self, members: np.ndarray) -> bool:
        versions = self.version[members]
        newest = versions.max()
        current = members[versions == newest]
        n_participants = int(self.cardinality[current[0]])
        have = current.shape[0]
        if 2 * have > n_participants:
            return True
        if self.linear and 2 * have == n_participants:
            return bool(
                (current == self.distinguished_site[current[0]]).any()
            )
        return False

    # ------------------------------------------------------------------
    def on_network_change(self, tracker: ComponentTracker) -> None:
        """Perform one write in the distinguished component.

        Note there is deliberately *no* state propagation here: unlike
        the QR protocol's quorum assignments, dynamic voting's version
        numbers certify **write participation** — a copy may only reach
        version ``M`` by being updated by write ``M``. Copying versions
        between communicating sites would let stale copies impersonate
        participants and break the at-most-one-distinguished-component
        invariant. Stale copies catch up exactly when a write in a
        distinguished component that contains them re-bases the
        participant set (:meth:`perform_write`).
        """
        self.perform_write(tracker)

    def perform_write(self, tracker: ComponentTracker) -> bool:
        """Execute one write in the distinguished component (if any).

        Returns whether a write happened. Re-bases the participant set
        when the membership changed.
        """
        members = self.distinguished_component(tracker)
        if members is None:
            return False
        newest = int(self.version[members].max())
        if (
            members.shape[0] != int(self.cardinality[members[0]])
            or (self.version[members] != newest).any()
        ):
            self.reconfigurations += 1
        self.version[members] = newest + 1
        self.cardinality[members] = members.shape[0]
        self.distinguished_site[members] = int(members.max())
        return True

    def grant_masks(self, tracker: ComponentTracker) -> Tuple[np.ndarray, np.ndarray]:
        mask = np.zeros(self.n_sites, dtype=bool)
        members = self.distinguished_component(tracker)
        if members is not None:
            mask[members] = True
        return mask, mask.copy()

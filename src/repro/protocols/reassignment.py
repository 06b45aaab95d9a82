"""The dynamic quorum reassignment protocol, QR (paper, section 2.2).

Each copy of the data item carries a quorum assignment and a *version
number*, initially 1 and incremented with every assignment change.
Two rules make reassignment safe:

1. **Installation rule.** A new assignment may be installed only from a
   component that possesses at least a write quorum of votes *under the
   effective (old) assignment*. Since write quorums pairwise intersect and
   a write quorum dominates every read quorum, that component is the only
   one currently able to grant any access at all.
2. **Propagation rule.** The assignment in effect for an access submitted
   to site ``x`` is the one with the highest version number in ``x``'s
   component; whenever components merge, every member adopts that newest
   assignment. Hence no component can regain access without first learning
   the newest assignment — a component lacking it holds fewer than
   ``q_r^{old}`` votes, and since ``q_w^{old} > q_r^{old}``, fewer than a
   write quorum too.

This class keeps per-site ``(assignment, version)`` state, propagates on
every network change, evaluates grant masks per component under the
effective assignment, and exposes :meth:`try_reassign` for policy layers
(e.g. the Figure-1 optimizer fed by an on-line density estimator) to call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import ProtocolError
from repro.protocols.base import ReplicaControlProtocol
from repro.quorum.assignment import QuorumAssignment

__all__ = ["QuorumReassignmentProtocol"]


class QuorumReassignmentProtocol(ReplicaControlProtocol):
    """Quorum consensus with versioned, dynamically replaceable assignments."""

    #: Grants are a pure function of each component's effective assignment
    #: and vote total, so the invariant monitor may replay them
    #: (grant-mask-consistency / grant-monotonicity metamorphic checks).
    declarative_grants = True

    def __init__(self, n_sites: int, initial_assignment: QuorumAssignment) -> None:
        if n_sites <= 0:
            raise ProtocolError(f"need at least one site, got {n_sites}")
        self.n_sites = int(n_sites)
        self._initial = initial_assignment
        self.name = f"quorum-reassignment(T={initial_assignment.total_votes})"
        self.reset()

    def reset(self) -> None:
        """Return every site to version 1 with the initial assignment."""
        self.site_version = np.ones(self.n_sites, dtype=np.int64)
        #: ``site_version.max()``, kept in step: only an install raises it
        #: (propagation copies versions, never invents one).
        self.newest_version = 1
        self.site_assignment: List[QuorumAssignment] = [self._initial] * self.n_sites
        #: Count of successful installations (observability for benches).
        self.installs = 0
        #: ``(vote_totals, newest_version, installs)`` the memoized masks
        #: were computed under, and the masks; see :meth:`grant_masks`.
        self._masks_key: Optional[tuple] = None
        self._masks: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Effective assignment lookup
    # ------------------------------------------------------------------
    def effective_assignment(
        self, tracker: ComponentTracker, site: int
    ) -> Optional[QuorumAssignment]:
        """The assignment in effect for accesses submitted at ``site``.

        ``None`` when the site is down (no component, no access anyway).
        """
        members = tracker.component_of(site)
        if members.size == 0:
            return None
        best = members[np.argmax(self.site_version[members])]
        return self.site_assignment[int(best)]

    def _component_views(
        self, tracker: ComponentTracker
    ) -> List[Tuple[np.ndarray, QuorumAssignment, int]]:
        """Per component: (member sites, effective assignment, votes)."""
        labels = tracker.labels
        totals = tracker.vote_totals
        views = []
        up = labels >= 0
        if not up.any():
            return views
        for label in range(int(labels.max()) + 1):
            members = np.nonzero(labels == label)[0]
            best = members[np.argmax(self.site_version[members])]
            views.append(
                (members, self.site_assignment[int(best)], int(totals[members[0]]))
            )
        return views

    def component_views(
        self, tracker: ComponentTracker
    ) -> List[Tuple[np.ndarray, QuorumAssignment, int]]:
        """Public view of the per-component effective state.

        Consumed by the invariant monitor's metamorphic grant checks and
        the verification subsystem's protocol differential.
        """
        return self._component_views(tracker)

    # ------------------------------------------------------------------
    # ReplicaControlProtocol interface
    # ------------------------------------------------------------------
    def on_network_change(self, tracker: ComponentTracker) -> None:
        """Propagate: every site adopts its component's newest assignment.

        Models the version-vector exchange that happens when sites
        communicate; in the real protocol this rides on ordinary message
        traffic, so by the time any access is evaluated the component has
        converged — which is exactly the state this method establishes.
        """
        propagated = 0
        for members, assignment, _votes in self._component_views(tracker):
            newest = int(self.site_version[members].max())
            for site in members:
                if self.site_version[site] != newest:
                    propagated += 1
                self.site_version[site] = newest
                self.site_assignment[int(site)] = assignment
        if propagated and self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_protocol_propagations_total",
                "sites that adopted a newer assignment version on merge",
            ).inc(propagated, protocol=self.name)

    def grant_masks(self, tracker: ComponentTracker) -> Tuple[np.ndarray, np.ndarray]:
        # The masks depend on the partition and on each component's newest
        # assignment. A tracker's arrays are copy-on-write, so the same
        # ``vote_totals`` object is the same partition; propagation leaves
        # every component's newest assignment as it was, an install raises
        # ``newest_version`` and ``installs``, and ``reset()`` drops the
        # memo. The key holds the array itself, so its id is not recycled.
        key = self._masks_key
        totals = tracker.vote_totals
        if (key is not None and key[0] is totals
                and key[1] == self.newest_version and key[2] == self.installs):
            return self._masks
        read_mask = np.zeros(self.n_sites, dtype=bool)
        write_mask = np.zeros(self.n_sites, dtype=bool)
        for members, assignment, votes in self._component_views(tracker):
            if assignment.allows_read(votes):
                read_mask[members] = True
            if assignment.allows_write(votes):
                write_mask[members] = True
        self._masks_key = (totals, self.newest_version, self.installs)
        self._masks = (read_mask, write_mask)
        return self._masks

    # ------------------------------------------------------------------
    # Reassignment
    # ------------------------------------------------------------------
    def can_reassign(self, tracker: ComponentTracker, site: int) -> bool:
        """May ``site``'s component install a new assignment right now?"""
        members = tracker.component_of(site)
        if members.size == 0:
            return False
        effective = self.effective_assignment(tracker, site)
        assert effective is not None
        votes = int(tracker.vote_totals[site])
        return effective.allows_write(votes)

    def try_reassign(
        self,
        tracker: ComponentTracker,
        site: int,
        new_assignment: QuorumAssignment,
    ) -> bool:
        """Attempt to install ``new_assignment`` from ``site``'s component.

        Returns ``True`` and bumps the version on success; returns
        ``False`` when the component lacks a write quorum under the old
        assignment (the paper's installation rule). Raises
        :class:`~repro.errors.ProtocolError` if the new assignment is for
        a different vote total than the current one.
        """
        if new_assignment.total_votes != self._initial.total_votes:
            raise ProtocolError(
                f"new assignment is for T={new_assignment.total_votes}, "
                f"system has T={self._initial.total_votes}"
            )
        if not self.can_reassign(tracker, site):
            return False
        members = tracker.component_of(site)
        new_version = self.newest_version = self.newest_version + 1
        for member in members:
            self.site_version[member] = new_version
            self.site_assignment[int(member)] = new_assignment
        self.installs += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_protocol_reassignments_total",
                "successful quorum reassignment installs",
            ).inc(protocol=self.name)
        return True

    def max_version(self) -> int:
        """The highest version number installed anywhere."""
        return self.newest_version

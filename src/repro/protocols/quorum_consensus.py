"""The quorum consensus protocol (Gifford '79; paper, section 2.1).

When an access is submitted to a site, that site collects the votes of
every site in its current component; a read proceeds iff the collected
votes reach ``q_r``, a write iff they reach ``q_w``. Since the component
tracker already exposes per-site component vote totals, the whole
decision is two vectorized comparisons.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import ProtocolError
from repro.protocols.base import ReplicaControlProtocol
from repro.quorum.assignment import QuorumAssignment

__all__ = ["QuorumConsensusProtocol"]


class QuorumConsensusProtocol(ReplicaControlProtocol):
    """Static quorum consensus with a fixed, validated assignment."""

    #: Grants are a pure function of (assignment, component votes), so the
    #: invariant monitor may replay them against the declared assignment
    #: (grant-mask-consistency / grant-monotonicity metamorphic checks).
    declarative_grants = True

    def __init__(self, assignment: QuorumAssignment) -> None:
        if not isinstance(assignment, QuorumAssignment):
            raise ProtocolError(
                f"expected a QuorumAssignment, got {type(assignment).__name__}"
            )
        self._assignment = assignment
        self.name = f"quorum-consensus{assignment}"
        #: The ``vote_totals`` array ``_masks`` was computed from: held, so
        #: that its identity cannot be recycled.
        self._totals = self._masks = None

    @property
    def assignment(self) -> QuorumAssignment:
        return self._assignment

    def reset(self) -> None:
        self._totals = self._masks = None

    def grant_masks(self, tracker: ComponentTracker) -> Tuple[np.ndarray, np.ndarray]:
        totals = tracker.vote_totals
        # A tracker's arrays are copy-on-write: the same object is the
        # same partition, so the masks handed out for it still hold.
        if totals is self._totals:
            return self._masks
        if tracker.total_votes != self._assignment.total_votes:
            raise ProtocolError(
                f"assignment is for T={self._assignment.total_votes} votes but the "
                f"network carries T={tracker.total_votes}"
            )
        # Down sites have component total 0 < 1 <= q_r, so both masks are
        # automatically False there.
        read_mask = totals >= self._assignment.read_quorum
        write_mask = totals >= self._assignment.write_quorum
        self._totals, self._masks = totals, (read_mask, write_mask)
        return self._masks

"""Replica control protocols (paper, section 2).

Static protocols evaluate every access against fixed criteria:

- :class:`QuorumConsensusProtocol` — Gifford's weighted voting with an
  arbitrary valid ``(q_r, q_w)`` assignment;
- :class:`MajorityConsensusProtocol` — the ``q_r = floor(T/2)``,
  ``q_w = floor(T/2)+1`` instance (Thomas '79);
- :class:`ReadOneWriteAllProtocol` — the ``q_r = 1``, ``q_w = T`` instance;
- :class:`PrimaryCopyProtocol` — accesses allowed only in the component
  containing a designated primary site (Alsberg & Day '76).

Dynamic protocols:

- :class:`QuorumReassignmentProtocol` (section 2.2) — quorum assignments
  carry version numbers and may be replaced, but only from within a
  component holding a write quorum under the *old* assignment;
- :class:`DynamicVotingProtocol` (the paper's refs [12, 13]) — the
  Jajodia-Mutchler comparison protocol whose participant set re-bases on
  every write;
- :class:`AdaptiveQuorumProtocol` — the paper's complete on-line loop:
  QR plus the estimators plus the Figure-1 optimizer with hysteresis.

Estimators: :class:`OnlineDensityEstimator` (section 4.2 — ``f_i`` from
component vote totals observed during normal processing) and
:class:`WorkloadEstimator` (Figure 1 step 1 — ``alpha``, ``r_i``,
``w_i`` from submitted accesses).
"""

from repro.protocols.base import ReplicaControlProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
from repro.protocols.primary_copy import PrimaryCopyProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.protocols.dynamic_voting import DynamicVotingProtocol
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.workload_estimator import WorkloadEstimator
from repro.protocols.adaptive import AdaptiveQuorumProtocol

__all__ = [
    "AdaptiveQuorumProtocol",
    "DynamicVotingProtocol",
    "MajorityConsensusProtocol",
    "OnlineDensityEstimator",
    "PrimaryCopyProtocol",
    "QuorumConsensusProtocol",
    "QuorumReassignmentProtocol",
    "ReadOneWriteAllProtocol",
    "ReplicaControlProtocol",
    "WorkloadEstimator",
]

"""The paper's complete on-line loop as one protocol.

Sections 2.2 + 4.2 + 4.3 compose into a single self-tuning system:

1. during normal processing, measure the workload (``alpha``, ``r_i``,
   ``w_i`` — :class:`~repro.protocols.workload_estimator.WorkloadEstimator`)
   and the component-size densities ``f_i``
   (:class:`~repro.protocols.estimator.OnlineDensityEstimator`);
2. periodically run the Figure-1 algorithm on those estimates;
3. "when a site finds that the current quorum assignment differs
   significantly from the optimal quorum assignment, the site attempts
   to install the new assignment using the QR protocol".

Steps 2 and 3 are :func:`reassignment_decision`, the one §4.3 step in
the repo: the serving control tick calls it, and so does
:class:`AdaptiveQuorumProtocol`, that loop packaged as an ordinary
:class:`~repro.protocols.base.ReplicaControlProtocol`: drop it into the
simulator or the replicated database and it converges to (and tracks)
the optimal assignment with no off-line model at all. Each host keeps
its own trigger and its own evidence gate; the protocol re-decides on
every network change once its density estimate carries
``min_observation_weight``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import DensityError, OptimizationError, ProtocolError
from repro.protocols.base import ReplicaControlProtocol
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.protocols.workload_estimator import WorkloadEstimator
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import optimal_read_quorum

__all__ = ["AdaptiveQuorumProtocol", "Decision", "install_from_any",
           "reassignment_decision"]


def install_from_any(
    qr: QuorumReassignmentProtocol,
    tracker: ComponentTracker,
    assignment: QuorumAssignment,
) -> Optional[Tuple[int, QuorumAssignment]]:
    """Install ``assignment`` from the first component that may (QR rule).

    Components are tried in ``qr.component_views`` order, each from its
    lowest site. Returns ``(site, the component's old assignment)``, or
    None when no component holds a write quorum under its own.
    """
    for members, effective, _votes in qr.component_views(tracker):
        site = int(members[0])
        if qr.try_reassign(tracker, site, assignment):
            return site, effective
    return None


class Decision(NamedTuple):
    """One §4.3 verdict."""

    #: Figure 1's assignment, or None when the current one stays (it is
    #: the same, or better by less than the improvement threshold).
    target: Optional[QuorumAssignment]
    #: :func:`install_from_any`'s answer for ``target``.
    installed: Optional[Tuple[int, QuorumAssignment]]


def reassignment_decision(
    qr: QuorumReassignmentProtocol,
    tracker: ComponentTracker,
    density: OnlineDensityEstimator,
    workload: WorkloadEstimator,
    improvement_threshold: float,
) -> Optional[Decision]:
    """Run Figure 1 on the estimates; install its answer if it pays enough.

    The current assignment is the one in effect at the newest-version up
    site (they all agree within a component; across components the
    newest is what a successful install would extend anyway). None when
    there is no verdict: a site has no density observation yet, Figure 1
    finds no assignment, or no site is up.
    """
    try:
        matrix = density.density_matrix()
    except DensityError:
        return None
    alpha, r_i, w_i = workload.snapshot()
    model = AvailabilityModel.from_density_matrix(
        matrix, read_weights=r_i, write_weights=w_i)
    try:
        best = optimal_read_quorum(model, alpha)
    except OptimizationError:
        return None
    up = np.nonzero(tracker.labels >= 0)[0]
    if up.size == 0:
        return None
    site = int(up[np.argmax(qr.site_version[up])])
    current = qr.effective_assignment(tracker, site)
    if best.assignment == current:
        return Decision(None, None)
    gain = best.availability - float(model.availability(alpha, current.read_quorum))
    if gain < improvement_threshold:
        return Decision(None, None)
    return Decision(best.assignment,
                    install_from_any(qr, tracker, best.assignment))


class AdaptiveQuorumProtocol(ReplicaControlProtocol):
    """Self-tuning quorum consensus: QR + on-line estimation + Figure 1.

    Starts every batch from majority consensus with empty estimates.
    """

    def __init__(
        self,
        n_sites: int,
        total_votes: int,
        min_observation_weight: float = 200.0,
        improvement_threshold: float = 0.01,
        forgetting_factor: float = 1.0,
    ) -> None:
        if improvement_threshold < 0:
            raise ProtocolError(
                f"improvement_threshold must be non-negative, got {improvement_threshold}"
            )
        if min_observation_weight < 0:
            raise ProtocolError(
                f"min_observation_weight must be non-negative, got {min_observation_weight}"
            )
        self.n_sites = int(n_sites)
        self.total_votes = int(total_votes)
        self.min_observation_weight = float(min_observation_weight)
        self.improvement_threshold = float(improvement_threshold)
        self.forgetting_factor = float(forgetting_factor)
        self.name = f"adaptive-quorum(T={total_votes})"
        self.reset()

    def bind_telemetry(self, telemetry) -> None:
        super().bind_telemetry(telemetry)
        self.qr.bind_telemetry(telemetry)

    def reset(self) -> None:
        self.qr = QuorumReassignmentProtocol(
            self.n_sites, QuorumAssignment.majority(self.total_votes))
        self.qr.bind_telemetry(self.telemetry)
        self.density = OnlineDensityEstimator(
            self.n_sites, self.total_votes, forgetting_factor=self.forgetting_factor
        )
        self.workload = WorkloadEstimator(
            self.n_sites, forgetting_factor=self.forgetting_factor
        )
        #: Successful reassignments since the last reset (one batch).
        self.installs = 0

    # ------------------------------------------------------------------
    # Measurement feed (called by the host: the simulator's engine)
    # ------------------------------------------------------------------
    def record_epoch(
        self,
        tracker: ComponentTracker,
        duration: float,
        reads: Optional[np.ndarray] = None,
        writes: Optional[np.ndarray] = None,
    ) -> None:
        """Feed one epoch's observations.

        ``duration`` weights the density estimate (time-weighted f_i);
        per-site submission counts, when available, feed the workload
        estimator.
        """
        if duration < 0:
            raise ProtocolError(f"duration must be non-negative, got {duration}")
        if duration > 0:
            self.density.observe_all(tracker.vote_totals, weight=duration)
        if reads is not None and writes is not None:
            self.workload.observe_counts(np.asarray(reads), np.asarray(writes))
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_adaptive_estimator_updates_total",
                "epoch observations fed to the adaptive density/workload estimators",
            ).inc(protocol=self.name)

    def maybe_reassign(self, tracker: ComponentTracker) -> bool:
        """The §4.3 decision, once the estimates carry enough weight."""
        if self.density.total_weight < self.min_observation_weight:
            return False
        decision = reassignment_decision(
            self.qr, tracker, self.density, self.workload,
            self.improvement_threshold)
        if decision is None or decision.installed is None:
            return False
        self.installs += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_adaptive_installs_total",
                "adaptive reassignments actually installed",
            ).inc(protocol=self.name)
        return True

    # ------------------------------------------------------------------
    # ReplicaControlProtocol interface (delegates to the QR core)
    # ------------------------------------------------------------------
    def on_network_change(self, tracker: ComponentTracker) -> None:
        self.qr.on_network_change(tracker)
        self.maybe_reassign(tracker)

    def grant_masks(self, tracker: ComponentTracker) -> Tuple[np.ndarray, np.ndarray]:
        return self.qr.grant_masks(tracker)

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

:class:`AdaptiveQuorumProtocol` is that loop packaged as an ordinary
:class:`~repro.protocols.base.ReplicaControlProtocol`: drop it into the
simulator or the replicated database and it converges to (and tracks)
the optimal assignment with no off-line model at all.

Policy knobs mirror the paper's language:

- ``min_observation_weight`` — don't trust the estimates until this much
  evidence has accumulated;
- ``improvement_threshold`` — "differs significantly": reassign only
  when the estimated availability gain exceeds this (hysteresis, so
  estimate noise does not thrash assignments);
- ``check_interval`` — re-optimize every k-th network change (the
  optimization itself is cheap; the knob exists to model real systems
  that piggyback on coarser maintenance cycles);
- optional ``write_floor`` — route the optimization through the section
  5.4 constrained optimizer instead of the unconstrained one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import OptimizationError, ProtocolError
from repro.protocols.base import ReplicaControlProtocol
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.protocols.workload_estimator import WorkloadEstimator
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.constraints import optimize_with_write_floor
from repro.quorum.optimizer import optimal_read_quorum

__all__ = ["AdaptiveQuorumProtocol"]


class AdaptiveQuorumProtocol(ReplicaControlProtocol):
    """Self-tuning quorum consensus: QR + on-line estimation + Figure 1."""

    def __init__(
        self,
        n_sites: int,
        total_votes: int,
        initial_assignment: Optional[QuorumAssignment] = None,
        alpha_hint: Optional[float] = None,
        min_observation_weight: float = 200.0,
        improvement_threshold: float = 0.01,
        check_interval: int = 1,
        write_floor: float = 0.0,
        forgetting_factor: float = 1.0,
    ) -> None:
        if check_interval < 1:
            raise ProtocolError(f"check_interval must be >= 1, got {check_interval}")
        if improvement_threshold < 0:
            raise ProtocolError(
                f"improvement_threshold must be non-negative, got {improvement_threshold}"
            )
        if min_observation_weight < 0:
            raise ProtocolError(
                f"min_observation_weight must be non-negative, got {min_observation_weight}"
            )
        if alpha_hint is not None and not 0.0 <= alpha_hint <= 1.0:
            raise ProtocolError(f"alpha_hint must be in [0, 1], got {alpha_hint}")
        self.n_sites = int(n_sites)
        self.total_votes = int(total_votes)
        self._initial = initial_assignment or QuorumAssignment.majority(total_votes)
        self.alpha_hint = alpha_hint
        self.min_observation_weight = float(min_observation_weight)
        self.improvement_threshold = float(improvement_threshold)
        self.check_interval = int(check_interval)
        self.write_floor = float(write_floor)
        self.forgetting_factor = float(forgetting_factor)
        self.name = f"adaptive-quorum(T={total_votes})"
        self.reset()

    def bind_telemetry(self, telemetry) -> None:
        super().bind_telemetry(telemetry)
        self.qr.bind_telemetry(telemetry)

    def reset(self) -> None:
        self.qr = QuorumReassignmentProtocol(self.n_sites, self._initial)
        self.qr.bind_telemetry(self.telemetry)
        self.density = OnlineDensityEstimator(
            self.n_sites, self.total_votes, forgetting_factor=self.forgetting_factor
        )
        self.workload = WorkloadEstimator(
            self.n_sites, forgetting_factor=self.forgetting_factor
        )
        self._changes_seen = 0
        #: Successful reassignments and skipped-below-threshold counters.
        self.installs = 0
        self.deferrals = 0

    # ------------------------------------------------------------------
    # Measurement feeds (called by the host: simulator observer or DB)
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
        estimator. Hosts without counts can pass only durations and rely
        on ``alpha_hint``.
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

    def record_access(self, tracker: ComponentTracker, site: int, is_read: bool) -> None:
        """Feed one access observation (the paper's literal scheme)."""
        self.workload.observe(site, is_read)
        self.density.observe(site, int(tracker.vote_totals[site]))

    # ------------------------------------------------------------------
    # Estimation + reassignment
    # ------------------------------------------------------------------
    def _enough_evidence(self) -> bool:
        return self.density.total_weight >= self.min_observation_weight

    def current_model(self) -> Optional[AvailabilityModel]:
        """Figure-1 model from the current estimates (None if starved)."""
        if not self._enough_evidence():
            return None
        try:
            matrix = self.density.density_matrix()
        except Exception:
            return None
        _, r_i, w_i = self.workload.snapshot()
        return AvailabilityModel.from_density_matrix(
            matrix, read_weights=r_i, write_weights=w_i
        )

    def effective_alpha(self) -> float:
        """Measured alpha, unless a hint pins it."""
        return self.alpha_hint if self.alpha_hint is not None else self.workload.alpha

    def maybe_reassign(self, tracker: ComponentTracker) -> bool:
        """Run Figure 1 and attempt a QR install if it pays enough."""
        model = self.current_model()
        if model is None:
            return False
        alpha = self.effective_alpha()
        try:
            if self.write_floor > 0.0:
                best = optimize_with_write_floor(model, alpha, self.write_floor)
            else:
                best = optimal_read_quorum(model, alpha)
        except OptimizationError:
            return False

        # Compare against the assignment currently in effect at some up
        # site (they all agree within a component; across components the
        # newest is what a successful install would extend anyway).
        up_sites = np.nonzero(tracker.labels >= 0)[0]
        if up_sites.size == 0:
            return False
        site = int(up_sites[np.argmax(self.qr.site_version[up_sites])])
        current = self.qr.effective_assignment(tracker, site)
        if current is None or current == best.assignment:
            return False
        current_value = float(model.availability(alpha, current.read_quorum))
        if best.availability - current_value < self.improvement_threshold:
            self.deferrals += 1
            return False
        if self.qr.try_reassign(tracker, site, best.assignment):
            self.installs += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "repro_adaptive_installs_total",
                    "adaptive reassignments actually installed",
                ).inc(protocol=self.name)
            return True
        return False

    # ------------------------------------------------------------------
    # ReplicaControlProtocol interface (delegates to the QR core)
    # ------------------------------------------------------------------
    def on_network_change(self, tracker: ComponentTracker) -> None:
        self.qr.on_network_change(tracker)
        self._changes_seen += 1
        if self._changes_seen % self.check_interval == 0:
            self.maybe_reassign(tracker)

    def grant_masks(self, tracker: ComponentTracker) -> Tuple[np.ndarray, np.ndarray]:
        return self.qr.grant_masks(tracker)

    def current_assignment(self, tracker: ComponentTracker, site: int = 0):
        """The assignment in effect at ``site`` (observability)."""
        return self.qr.effective_assignment(tracker, site)

"""Tests for the workload estimator and the adaptive quorum protocol."""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ProtocolError, SimulationError
from repro.protocols.adaptive import (
    AdaptiveQuorumProtocol,
    Decision,
    reassignment_decision,
)
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.protocols.workload_estimator import WorkloadEstimator
from repro.quorum.assignment import QuorumAssignment
from repro.topology.generators import ring


class TestWorkloadEstimator:
    def test_alpha_estimation(self):
        est = WorkloadEstimator(3, pseudocount=0.01)
        for _ in range(30):
            est.observe(0, is_read=True)
        for _ in range(10):
            est.observe(1, is_read=False)
        assert est.alpha == pytest.approx(0.75, abs=0.01)

    def test_prior_centers_alpha(self):
        assert WorkloadEstimator(4).alpha == 0.5

    def test_site_weights(self):
        est = WorkloadEstimator(3, pseudocount=0.01)
        est.observe_counts(np.array([80.0, 20.0, 0.0]), np.array([0.0, 0.0, 50.0]))
        np.testing.assert_allclose(est.read_weights, [0.8, 0.2, 0.0], atol=0.01)
        np.testing.assert_allclose(est.write_weights, [0.0, 0.0, 1.0], atol=0.01)

    def test_weights_always_positive(self):
        est = WorkloadEstimator(3)
        est.observe(0, True)
        assert (est.read_weights > 0).all()
        assert (est.write_weights > 0).all()
        assert est.read_weights.sum() == pytest.approx(1.0)

    def test_forgetting_tracks_shift(self):
        est = WorkloadEstimator(2, forgetting_factor=0.9, pseudocount=0.01)
        for _ in range(100):
            est.observe(0, is_read=False)
        for _ in range(40):
            est.observe(0, is_read=True)
        assert est.alpha > 0.9

    def test_snapshot_shape(self):
        est = WorkloadEstimator(5)
        alpha, r_i, w_i = est.snapshot()
        assert 0 <= alpha <= 1
        assert r_i.shape == (5,) and w_i.shape == (5,)

    def test_validation(self):
        with pytest.raises(SimulationError):
            WorkloadEstimator(0)
        with pytest.raises(SimulationError):
            WorkloadEstimator(3, forgetting_factor=0.0)
        with pytest.raises(SimulationError):
            WorkloadEstimator(3, pseudocount=0.0)
        est = WorkloadEstimator(3)
        with pytest.raises(SimulationError):
            est.observe(5, True)
        with pytest.raises(SimulationError):
            est.observe_counts(np.array([1.0]), np.array([1.0, 1.0, 1.0]))

    def test_reset(self):
        est = WorkloadEstimator(2)
        est.observe(0, True)
        est.reset()
        assert est.total_observed == 0.0


class TestAdaptiveProtocol:
    def _setup(self, n=9, **kwargs):
        topo = ring(n)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        proto = AdaptiveQuorumProtocol(n, n, **kwargs)
        proto.on_network_change(tracker)
        return topo, state, tracker, proto

    def test_starts_as_majority(self):
        topo, state, tracker, proto = self._setup()
        assert proto.qr.effective_assignment(tracker, 0) == QuorumAssignment.majority(9)

    def test_no_reassignment_without_evidence(self):
        topo, state, tracker, proto = self._setup(min_observation_weight=1e9)
        proto.record_epoch(tracker, 10.0,
                           reads=np.full(9, 5.0), writes=np.ones(9))
        assert not proto.maybe_reassign(tracker)
        assert proto.installs == 0

    def test_learns_read_heavy_and_moves_left(self):
        """Feed read-heavy epochs where the network is often fragmented;
        the protocol must install a small read quorum."""
        topo, state, tracker, proto = self._setup(
            min_observation_weight=50.0, improvement_threshold=0.0,
        )
        rng = np.random.default_rng(0)
        reads = np.full(9, 9.0)   # alpha ~ 0.9
        writes = np.full(9, 1.0)
        for step in range(60):
            # Random fragmentation: flip a couple of links.
            for _ in range(2):
                link = int(rng.integers(0, topo.n_links))
                state.set_link(link, not state.link_up[link])
            proto.record_epoch(tracker, duration=1.0, reads=reads, writes=writes)
            proto.on_network_change(tracker)
        assert proto.installs >= 1
        # Heal fully and read the effective assignment.
        for link in range(topo.n_links):
            state.set_link(link, True)
        proto.on_network_change(tracker)
        assignment = proto.qr.effective_assignment(tracker, 0)
        assert assignment.read_quorum < 4
        assert proto.workload.alpha == pytest.approx(0.9, abs=0.02)

    def test_hysteresis_defers_marginal_changes(self):
        topo, state, tracker, proto = self._setup(
            min_observation_weight=10.0, improvement_threshold=1.0,  # impossible gain
        )
        reads = np.full(9, 9.0)
        writes = np.full(9, 1.0)
        for _ in range(30):
            proto.record_epoch(tracker, 1.0, reads=reads, writes=writes)
            proto.on_network_change(tracker)
        assert proto.installs == 0

    def test_validation(self):
        with pytest.raises(ProtocolError):
            AdaptiveQuorumProtocol(5, 5, improvement_threshold=-1.0)
        with pytest.raises(ProtocolError):
            AdaptiveQuorumProtocol(5, 5, min_observation_weight=-1.0)

    def test_record_epoch_validates_duration(self):
        topo, state, tracker, proto = self._setup()
        with pytest.raises(ProtocolError):
            proto.record_epoch(tracker, -1.0)

    def test_reset_clears_state(self):
        topo, state, tracker, proto = self._setup(min_observation_weight=1.0)
        proto.record_epoch(tracker, 5.0, reads=np.ones(9), writes=np.ones(9))
        proto.reset()
        assert proto.density.total_weight == 0.0
        assert proto.installs == 0


class TestReassignmentDecision:
    """The one §4.3 step that the protocol and the serving tick share."""

    N = 6

    def _setup(self, alpha_reads=9.0):
        topo = ring(self.N)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        qr = QuorumReassignmentProtocol(self.N, QuorumAssignment.majority(self.N))
        density = OnlineDensityEstimator(self.N, self.N)
        # Half the time isolated, half the time whole: reads want q_r = 1.
        density.observe_all(np.ones(self.N, dtype=np.int64), weight=1.0)
        density.observe_all(np.full(self.N, self.N), weight=1.0)
        workload = WorkloadEstimator(self.N)
        workload.observe_counts(np.full(self.N, alpha_reads), np.ones(self.N))
        return topo, state, tracker, qr, density, workload

    def test_no_verdict_while_a_site_is_unobserved(self):
        _, _, tracker, qr, _, workload = self._setup()
        empty = OnlineDensityEstimator(self.N, self.N)
        assert reassignment_decision(qr, tracker, empty, workload, 0.0) is None

    def test_no_verdict_with_every_site_down(self):
        _, state, tracker, qr, density, workload = self._setup()
        for site in range(self.N):
            state.fail_site(site)
        assert reassignment_decision(qr, tracker, density, workload, 0.0) is None

    def test_a_gain_below_the_threshold_keeps_the_current_assignment(self):
        _, _, tracker, qr, density, workload = self._setup()
        assert reassignment_decision(qr, tracker, density, workload, 1.0) == (
            Decision(None, None))
        assert qr.installs == 0

    def test_installs_from_the_first_component_that_may(self):
        # {0, 1} holds the newest-version up site but only 2 of 6 votes;
        # {2, 3, 4, 5} holds a majority write quorum and installs.
        topo, state, tracker, qr, density, workload = self._setup()
        state.fail_link(topo.link_id(1, 2))
        state.fail_link(topo.link_id(5, 0))
        qr.on_network_change(tracker)
        decision = reassignment_decision(qr, tracker, density, workload, 0.0)
        assert decision.target == QuorumAssignment.read_one_write_all(self.N)
        assert decision.installed == (2, QuorumAssignment.majority(self.N))
        assert qr.site_version.tolist() == [1, 1, 2, 2, 2, 2]

    def test_a_target_no_component_may_install_is_returned_uninstalled(self):
        topo, state, tracker, qr, density, workload = self._setup()
        for a, b in ((1, 2), (3, 4), (5, 0)):
            state.fail_link(topo.link_id(a, b))
        decision = reassignment_decision(qr, tracker, density, workload, 0.0)
        assert decision.target == QuorumAssignment.read_one_write_all(self.N)
        assert decision.installed is None
        assert qr.installs == 0


class TestAdaptiveInSimulator:
    def test_end_to_end_self_tuning(self):
        """Drop the adaptive protocol into the simulator unmodified: it
        must learn alpha from the sampled workload, install a better
        assignment, and beat static majority on measured ACC."""
        from repro.protocols.majority import MajorityConsensusProtocol
        from repro.simulation.config import SimulationConfig
        from repro.simulation.runner import run_simulation

        topo = ring(21)
        cfg = SimulationConfig.paper_like(
            topo, alpha=0.9,
            warmup_accesses=0.0,
            accesses_per_batch=20_000.0,
            n_batches=2,
            initial_state="stationary",
            seed=14,
        )
        adaptive = AdaptiveQuorumProtocol(
            21, 21, min_observation_weight=50.0, improvement_threshold=0.005,
        )
        dynamic = run_simulation(cfg, adaptive)
        static = run_simulation(cfg, MajorityConsensusProtocol(21))
        assert adaptive.installs >= 1
        # Measured alpha converged to the true 0.9.
        assert adaptive.workload.alpha == pytest.approx(0.9, abs=0.03)
        assert dynamic.availability.mean > static.availability.mean + 0.03

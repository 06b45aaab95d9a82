"""InvariantMonitor: each rule fires on a violating state and stays quiet
on a correct one."""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import FaultInjectionError, InvariantViolation
from repro.faults.chaos import unchecked_assignment
from repro.faults.monitor import InvariantMonitor, ViolationRecord
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.topology.generators import ring


@pytest.fixture
def network():
    topo = ring(6)
    state = NetworkState(topo)
    return topo, state, ComponentTracker(state)


def split_ring(topo, state, boundary_a=(2, 3), boundary_b=(5, 0)):
    """Partition a 6-ring into {0,1,2} and {3,4,5}."""
    state.fail_link(topo.link_id(*boundary_a))
    state.fail_link(topo.link_id(*boundary_b))


class _MaskProtocol:
    """Test double returning fixed grant masks (and optional versions)."""

    name = "mask-protocol"

    def __init__(self, read_mask, write_mask, site_version=None):
        self._read = np.asarray(read_mask, dtype=bool)
        self._write = np.asarray(write_mask, dtype=bool)
        if site_version is not None:
            self.site_version = np.asarray(site_version, dtype=np.int64)

    def grant_masks(self, tracker):
        return self._read, self._write


class TestStructuralChecks:
    def test_clean_assignment_passes(self, network):
        topo, state, tracker = network
        protocol = QuorumConsensusProtocol(QuorumAssignment.majority(6))
        monitor = InvariantMonitor()
        split_ring(topo, state)
        monitor.observe(0.0, tracker, protocol)
        assert monitor.ok
        assert monitor.checks_run == 1

    def test_broken_intersection_detected(self, network):
        topo, state, tracker = network
        protocol = QuorumConsensusProtocol(unchecked_assignment(6, 1, 2))
        monitor = InvariantMonitor()
        monitor.observe(1.0, tracker, protocol)
        rules = {v.rule for v in monitor.violations}
        assert "quorum-intersection" in rules      # 1 + 2 <= 6
        assert "write-write-intersection" in rules  # 2*2 <= 6

    def test_qr_component_views_are_inspected(self, network):
        topo, state, tracker = network
        protocol = QuorumReassignmentProtocol(6, QuorumAssignment.majority(6))
        protocol.on_network_change(tracker)
        # Corrupt one site's installed assignment directly (simulating a
        # buggy installation path): the monitor must notice.
        protocol.site_assignment[0] = unchecked_assignment(6, 1, 2)
        protocol.site_version[0] = 99
        monitor = InvariantMonitor()
        monitor.observe(2.0, tracker, protocol)
        assert any(v.rule == "quorum-intersection" for v in monitor.violations)


class TestBehavioralChecks:
    def test_concurrent_writes_in_disjoint_components(self, network):
        topo, state, tracker = network
        split_ring(topo, state)
        everywhere = np.ones(6, dtype=bool)
        monitor = InvariantMonitor()
        monitor.observe(3.0, tracker, _MaskProtocol(everywhere, everywhere))
        assert any(v.rule == "concurrent-writes" for v in monitor.violations)

    def test_stale_read_disjoint_from_writer(self, network):
        topo, state, tracker = network
        split_ring(topo, state)
        reads = np.ones(6, dtype=bool)
        writes = np.zeros(6, dtype=bool)
        writes[tracker.labels == tracker.labels[0]] = True
        monitor = InvariantMonitor()
        monitor.observe(4.0, tracker, _MaskProtocol(reads, writes))
        rules = {v.rule for v in monitor.violations}
        assert "stale-read" in rules
        assert "concurrent-writes" not in rules

    def test_single_component_writes_are_fine(self, network):
        topo, state, tracker = network
        split_ring(topo, state)
        masks = np.zeros(6, dtype=bool)
        masks[tracker.labels == tracker.labels[0]] = True
        monitor = InvariantMonitor()
        monitor.observe(5.0, tracker, _MaskProtocol(masks, masks))
        assert monitor.ok

    def test_grant_evaluation_failure_is_a_finding(self, network):
        topo, state, tracker = network

        class Dying:
            name = "dying"

            def grant_masks(self, tracker):
                raise RuntimeError("protocol exploded")

        monitor = InvariantMonitor()
        monitor.observe(6.0, tracker, Dying())
        assert [v.rule for v in monitor.violations] == ["grant-evaluation"]


class TestMetamorphicGrantChecks:
    """The declarative-grant replay added with the verification subsystem."""

    def uneven_split(self, topo, state):
        """Partition a 6-ring into {0,1,2,3} (4 votes) and {4,5} (2 votes)."""
        state.fail_link(topo.link_id(3, 4))
        state.fail_link(topo.link_id(5, 0))

    def test_healthy_declarative_protocols_stay_quiet(self, network):
        topo, state, tracker = network
        self.uneven_split(topo, state)
        monitor = InvariantMonitor()
        monitor.observe(0.0, tracker,
                        QuorumConsensusProtocol(QuorumAssignment.majority(6)))
        qr = QuorumReassignmentProtocol(6, QuorumAssignment.majority(6))
        qr.on_network_change(tracker)
        monitor.observe(1.0, tracker, qr)
        assert monitor.ok

    def test_mask_contradicting_assignment_detected(self, network):
        topo, state, tracker = network

        class Lying(QuorumConsensusProtocol):
            def grant_masks(self, tracker):
                read_mask, write_mask = super().grant_masks(tracker)
                return read_mask, ~write_mask  # deny what the assignment allows

        monitor = InvariantMonitor()
        monitor.observe(2.0, tracker, Lying(QuorumAssignment.majority(6)))
        assert any(v.rule == "grant-mask-consistency" for v in monitor.violations)

    def test_split_decision_within_component_detected(self, network):
        topo, state, tracker = network

        class HalfGranting(QuorumConsensusProtocol):
            def grant_masks(self, tracker):
                read_mask, write_mask = super().grant_masks(tracker)
                read_mask = read_mask.copy()
                read_mask[0] = not read_mask[0]  # one member disagrees
                return read_mask, write_mask

        monitor = InvariantMonitor()
        monitor.observe(3.0, tracker, HalfGranting(QuorumAssignment.majority(6)))
        consistency = [v for v in monitor.violations
                       if v.rule == "grant-mask-consistency"]
        assert consistency
        assert "split within component" in consistency[0].detail

    def test_grant_monotonicity_violation_detected(self, network):
        topo, state, tracker = network
        self.uneven_split(topo, state)

        class Inverted(QuorumConsensusProtocol):
            """Grants reads to the poorer component, denies the richer."""

            def grant_masks(self, tracker):
                totals = tracker.vote_totals
                read_mask = totals == 2  # only the 2-vote component
                write_mask = np.zeros(6, dtype=bool)
                return read_mask, write_mask

        monitor = InvariantMonitor()
        monitor.observe(4.0, tracker,
                        Inverted(QuorumAssignment.from_read_quorum(6, 3)))
        rules = {v.rule for v in monitor.violations}
        assert "grant-monotonicity" in rules

    def test_non_declarative_protocols_are_skipped(self, network):
        topo, state, tracker = network
        # _MaskProtocol makes no declarative_grants claim, so arbitrary
        # masks must not be replayed against any assignment.
        nothing = np.zeros(6, dtype=bool)
        monitor = InvariantMonitor()
        monitor.observe(5.0, tracker, _MaskProtocol(nothing, nothing))
        assert not any(v.rule.startswith("grant-mask") for v in monitor.violations)
        assert not any(v.rule == "grant-monotonicity" for v in monitor.violations)

    def test_qr_corrupted_mask_detected(self, network):
        topo, state, tracker = network
        self.uneven_split(topo, state)

        class LyingQR(QuorumReassignmentProtocol):
            def grant_masks(self, tracker):
                read_mask, write_mask = super().grant_masks(tracker)
                return read_mask, ~write_mask

        protocol = LyingQR(6, QuorumAssignment.majority(6))
        protocol.on_network_change(tracker)
        monitor = InvariantMonitor()
        monitor.observe(6.0, tracker, protocol)
        assert any(v.rule == "grant-mask-consistency" for v in monitor.violations)


class TestVersionChecks:
    def test_stale_assignment_grant_detected(self, network):
        topo, state, tracker = network
        split_ring(topo, state)
        versions = np.ones(6, dtype=np.int64)
        versions[3] = 5  # component {3,4,5} installed version 5
        granted = tracker.labels == tracker.labels[0]  # grants in {0,1,2}
        monitor = InvariantMonitor()
        monitor.observe(
            7.0, tracker, _MaskProtocol(granted, granted, site_version=versions)
        )
        assert any(v.rule == "stale-assignment-grant" for v in monitor.violations)

    def test_grant_under_newest_version_is_fine(self, network):
        topo, state, tracker = network
        split_ring(topo, state)
        versions = np.ones(6, dtype=np.int64)
        versions[0] = 5  # the granted component holds the newest version
        granted = tracker.labels == tracker.labels[0]
        monitor = InvariantMonitor()
        monitor.observe(
            8.0, tracker, _MaskProtocol(granted, granted, site_version=versions)
        )
        assert monitor.ok

    def test_version_regression_detected(self, network):
        topo, state, tracker = network
        nothing = np.zeros(6, dtype=bool)
        protocol = _MaskProtocol(nothing, nothing, site_version=[2] * 6)
        monitor = InvariantMonitor()
        monitor.observe(9.0, tracker, protocol)
        protocol.site_version = np.asarray([2, 2, 1, 2, 2, 2])
        monitor.observe(10.0, tracker, protocol)
        regressions = [v for v in monitor.violations if v.rule == "version-regression"]
        assert len(regressions) == 1
        assert "sites [2]" in regressions[0].detail

    def test_start_batch_resets_version_history(self, network):
        topo, state, tracker = network
        nothing = np.zeros(6, dtype=bool)
        protocol = _MaskProtocol(nothing, nothing, site_version=[5] * 6)
        monitor = InvariantMonitor()
        monitor.observe(0.0, tracker, protocol)
        monitor.start_batch(1, seed=0)
        protocol.site_version = np.ones(6, dtype=np.int64)  # protocol reset
        monitor.observe(0.0, tracker, protocol)
        assert monitor.ok


class TestRecording:
    def test_records_carry_batch_seed_and_snapshot(self, network):
        topo, state, tracker = network
        monitor = InvariantMonitor()
        monitor.start_batch(3, seed=77)
        monitor.record(1.5, "test-rule", "details", tracker=tracker)
        (violation,) = monitor.violations
        assert violation.batch_index == 3
        assert violation.seed == 77
        assert violation.snapshot["site_up"] == [1] * 6
        assert "batch 3" in str(violation)

    def test_record_cap_counts_overflow(self, network):
        topo, state, tracker = network
        monitor = InvariantMonitor(max_records=2)
        for k in range(5):
            monitor.record(float(k), "r", "d")
        assert len(monitor.violations) == 2
        assert monitor.overflowed == 3
        assert not monitor.ok

    def test_negative_record_cap_rejected(self):
        with pytest.raises(FaultInjectionError, match="max_records"):
            InvariantMonitor(max_records=-1)

    def test_serializability_hook(self):
        monitor = InvariantMonitor()
        monitor.record_serializability(4.0, "read saw stale value")
        assert monitor.violations[0].rule == "one-copy-serializability"

    def test_violation_record_to_error_round_trip(self):
        record = ViolationRecord(time=1.0, rule="r", detail="d", seed=9)
        error = record.to_error()
        assert isinstance(error, InvariantViolation)
        assert error.rule == "r" and error.seed == 9

    def test_summary_groups_by_rule(self):
        monitor = InvariantMonitor()
        monitor.record(0.0, "a", "x")
        monitor.record(1.0, "a", "y")
        monitor.record(2.0, "b", "z")
        text = monitor.summary()
        assert "a" in text and "b" in text and "3" in text

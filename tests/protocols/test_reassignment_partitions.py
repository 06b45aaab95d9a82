"""Regression suite: the paper's section-2.2 merge/split scenarios.

Each test scripts a partition history from the QR correctness argument
and asserts — via the chaos :class:`InvariantMonitor`, the same checker
the fault-injection campaigns use — that no component is ever granted an
access while holding a stale (non-newest) assignment, and that versions
never regress. These are the scenarios the installation and propagation
rules exist to survive.
"""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.faults.monitor import InvariantMonitor
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.topology.generators import ring


@pytest.fixture
def system():
    """A 6-ring under QR with the majority assignment (q_r=3, q_w=4)."""
    topo = ring(6)
    state = NetworkState(topo)
    tracker = ComponentTracker(state)
    protocol = QuorumReassignmentProtocol(6, QuorumAssignment.majority(6))
    protocol.on_network_change(tracker)
    monitor = InvariantMonitor()
    return topo, state, tracker, protocol, monitor


class TestMergeSplitScenarios:
    def observe(self, tracker, protocol, monitor, t=0.0):
        monitor.observe(t, tracker, protocol)
        assert monitor.ok, monitor.summary()

    def test_install_then_split_lets_singleton_read(self, system):
        """Paper section 2.2's motivating story: reassign toward ROWA so a
        lone site keeps serving reads after a partition — legally, because
        the new assignment propagated *before* the split."""
        topo, state, tracker, protocol, monitor = system
        rowa = QuorumAssignment.read_one_write_all(6)
        assert protocol.try_reassign(tracker, 0, rowa)  # full network: allowed
        assert protocol.max_version() == 2

        # Now isolate site 5 (cut links (4,5) and (5,0)).
        state.fail_link(topo.link_id(4, 5))
        state.fail_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)
        self.observe(tracker, protocol, monitor, t=1.0)  # asserts monitor.ok

        read_mask, write_mask = protocol.grant_masks(tracker)
        assert read_mask[5], "singleton knows q_r=1 and may read"
        assert not write_mask[5], "writes still need all six votes"
        assert protocol.effective_assignment(tracker, 5) == rowa

    def test_split_then_install_starves_the_minority(self, system):
        """Install after the split: the minority never hears about the new
        assignment — and the propagation rule keeps it locked out rather
        than letting it serve stale reads."""
        topo, state, tracker, protocol, monitor = system
        # Split 4/2: majority {0,1,2,3}, minority {4,5}.
        state.fail_link(topo.link_id(3, 4))
        state.fail_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)

        rowa = QuorumAssignment.read_one_write_all(6)
        assert not protocol.try_reassign(tracker, 4, rowa)  # minority: refused
        assert protocol.try_reassign(tracker, 0, rowa)      # majority: 4 >= q_w
        self.observe(tracker, protocol, monitor, t=1.0)

        read_mask, _ = protocol.grant_masks(tracker)
        # Minority still holds version 1 (q_r=3 > its 2 votes): no access.
        # Were it consulted under the NEW q_r=1, this mask would be True —
        # exactly the stale-assignment grant the monitor hunts.
        assert not read_mask[4] and not read_mask[5]
        assert protocol.site_version[4] == 1
        assert protocol.site_version[0] == 2

    def test_merge_propagates_newest_version(self, system):
        """Healing the partition must teach the stale side the newest
        assignment before it regains any access (propagation rule)."""
        topo, state, tracker, protocol, monitor = system
        state.fail_link(topo.link_id(3, 4))
        state.fail_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)
        rowa = QuorumAssignment.read_one_write_all(6)
        assert protocol.try_reassign(tracker, 0, rowa)

        # Merge back.
        state.repair_link(topo.link_id(3, 4))
        state.repair_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)
        self.observe(tracker, protocol, monitor, t=2.0)

        np.testing.assert_array_equal(protocol.site_version, [2] * 6)
        assert all(
            protocol.site_assignment[s] == rowa for s in range(6)
        )
        # And now a fresh split: the previously-stale side reads alone.
        state.fail_link(topo.link_id(3, 4))
        state.fail_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)
        self.observe(tracker, protocol, monitor, t=3.0)
        read_mask, _ = protocol.grant_masks(tracker)
        assert read_mask[4] and read_mask[5]

    def test_repeated_split_merge_cycles_never_regress(self, system):
        """Versions are monotone across split/merge churn, with each
        installation made from a component holding a write quorum *under
        the assignment it replaces* (the installation rule's precondition).
        """
        topo, state, tracker, protocol, monitor = system

        def churn(t, break_network, heal_network, assignment):
            break_network()
            protocol.on_network_change(tracker)
            self.observe(tracker, protocol, monitor, t=t)
            installed = any(
                protocol.try_reassign(tracker, site, assignment)
                for site in range(6)
            )
            assert installed
            self.observe(tracker, protocol, monitor, t=t + 0.5)
            heal_network()
            protocol.on_network_change(tracker)
            self.observe(tracker, protocol, monitor, t=t + 1.0)

        # Round 1: old q_w=4 — a 4-site component installs (q_r=2, q_w=5).
        cut = [topo.link_id(3, 4), topo.link_id(5, 0)]
        churn(
            0.0,
            lambda: [state.fail_link(l) for l in cut],
            lambda: [state.repair_link(l) for l in cut],
            QuorumAssignment(6, 2, 5),
        )
        # Round 2: old q_w=5 — a 5-site component (one site down) installs
        # the majority assignment back.
        churn(
            2.0,
            lambda: state.fail_site(5),
            lambda: state.repair_site(5),
            QuorumAssignment.majority(6),
        )
        # Round 3: old q_w=4 again — a different 4-site split installs
        # (q_r=3, q_w=4).
        cut2 = [topo.link_id(1, 2), topo.link_id(5, 0)]
        churn(
            4.0,
            lambda: [state.fail_link(l) for l in cut2],
            lambda: [state.repair_link(l) for l in cut2],
            QuorumAssignment(6, 3, 4),
        )
        assert protocol.max_version() == 4
        assert protocol.installs == 3
        np.testing.assert_array_equal(protocol.site_version, [4] * 6)

    def test_site_crash_during_partition_keeps_invariants(self, system):
        """Sites failing inside an already-partitioned network must not
        open a stale-read window when they rejoin."""
        topo, state, tracker, protocol, monitor = system
        state.fail_link(topo.link_id(2, 3))
        state.fail_link(topo.link_id(5, 0))  # {0,1,2} vs {3,4,5}
        protocol.on_network_change(tracker)
        self.observe(tracker, protocol, monitor, t=0.0)

        state.fail_site(4)
        protocol.on_network_change(tracker)
        self.observe(tracker, protocol, monitor, t=1.0)

        # Neither 3-vote side reaches q_w=4: no installation anywhere.
        rowa = QuorumAssignment.read_one_write_all(6)
        for site in (0, 3):
            assert not protocol.try_reassign(tracker, site, rowa)

        state.repair_site(4)
        state.repair_link(topo.link_id(2, 3))
        state.repair_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)
        self.observe(tracker, protocol, monitor, t=2.0)
        assert protocol.max_version() == 1  # nothing installed, nothing lost
        read_mask, write_mask = protocol.grant_masks(tracker)
        assert read_mask.all() and write_mask.all()

    def test_stale_grant_would_be_caught(self, system):
        """Sanity for the suite itself: if the propagation rule were broken
        (simulated by force-feeding a minority component a permissive
        assignment at version 1), the monitor DOES flag it."""
        topo, state, tracker, protocol, monitor = system
        state.fail_link(topo.link_id(3, 4))
        state.fail_link(topo.link_id(5, 0))
        protocol.on_network_change(tracker)
        rowa = QuorumAssignment.read_one_write_all(6)
        assert protocol.try_reassign(tracker, 0, rowa)  # majority at version 2

        # Break the protocol by hand: the minority adopts q_r=1 WITHOUT
        # learning version 2 — the exact bug the rules prevent.
        protocol.site_assignment[4] = rowa
        protocol.site_assignment[5] = rowa

        monitor.observe(5.0, tracker, protocol)
        assert not monitor.ok
        assert "stale-assignment-grant" in {v.rule for v in monitor.violations}

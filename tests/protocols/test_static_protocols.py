"""Unit tests for the static replica-control protocols."""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ProtocolError
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.primary_copy import PrimaryCopyProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.topology.generators import ring
from repro.topology.model import Topology


@pytest.fixture
def ring6():
    topo = ring(6)
    state = NetworkState(topo)
    return topo, state, ComponentTracker(state)


class TestQuorumConsensus:
    def test_all_up_grants_everything(self, ring6):
        topo, state, tracker = ring6
        proto = QuorumConsensusProtocol(QuorumAssignment(6, 3, 4))
        read_mask, write_mask = proto.grant_masks(tracker)
        assert read_mask.all() and write_mask.all()

    def test_partition_respects_quorums(self, ring6):
        topo, state, tracker = ring6
        proto = QuorumConsensusProtocol(QuorumAssignment(6, 2, 5))
        # Split into {1,2} and {3,4,5,0} by killing two links.
        state.fail_link(topo.link_id(0, 1))
        state.fail_link(topo.link_id(2, 3))
        read_mask, write_mask = proto.grant_masks(tracker)
        assert read_mask[1] and read_mask[2]       # 2 votes >= q_r
        assert not write_mask[1]                   # 2 < q_w = 5
        assert read_mask[3] and not write_mask[3]  # 4 votes < 5

    def test_down_site_denied_both(self, ring6):
        topo, state, tracker = ring6
        proto = QuorumConsensusProtocol(QuorumAssignment.read_one_write_all(6))
        state.fail_site(2)
        read_mask, write_mask = proto.grant_masks(tracker)
        assert not read_mask[2] and not write_mask[2]
        assert read_mask[0]

    def test_vote_total_mismatch_detected(self):
        topo = ring(5)
        tracker = ComponentTracker(NetworkState(topo))
        proto = QuorumConsensusProtocol(QuorumAssignment(6, 3, 4))
        with pytest.raises(ProtocolError):
            proto.grant_masks(tracker)

    def test_requires_assignment_object(self):
        with pytest.raises(ProtocolError):
            QuorumConsensusProtocol((3, 4))  # type: ignore[arg-type]

    def test_weighted_votes(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)], votes=[3, 1, 1, 1])
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        proto = QuorumConsensusProtocol(QuorumAssignment(6, 3, 4))
        state.fail_link(topo.link_id(1, 2))
        read_mask, write_mask = proto.grant_masks(tracker)
        assert read_mask[0] and write_mask[0]          # {0,1}: 4 votes
        assert not read_mask[2] and not write_mask[2]  # {2,3}: 2 votes


class TestNamedInstances:
    def test_majority_is_quorum_consensus_instance(self, ring6):
        topo, state, tracker = ring6
        named = MajorityConsensusProtocol(6)
        explicit = QuorumConsensusProtocol(QuorumAssignment.majority(6))
        state.fail_site(0)
        for a, b in zip(named.grant_masks(tracker), explicit.grant_masks(tracker)):
            np.testing.assert_array_equal(a, b)

    def test_rowa_read_everywhere_write_nowhere_on_partition(self, ring6):
        topo, state, tracker = ring6
        proto = ReadOneWriteAllProtocol(6)
        state.fail_link(topo.link_id(0, 1))
        state.fail_link(topo.link_id(3, 4))
        read_mask, write_mask = proto.grant_masks(tracker)
        assert read_mask.all()          # every site is up
        assert not write_mask.any()     # no component holds all 6 votes


class TestPrimaryCopy:
    def test_only_primary_component_may_access(self, ring6):
        topo, state, tracker = ring6
        proto = PrimaryCopyProtocol(primary_site=0)
        state.fail_link(topo.link_id(1, 2))
        state.fail_link(topo.link_id(4, 5))
        read_mask, write_mask = proto.grant_masks(tracker)
        # Primary component is {5, 0, 1}.
        assert read_mask[5] and read_mask[0] and read_mask[1]
        assert not read_mask[2] and not read_mask[3]
        np.testing.assert_array_equal(read_mask, write_mask)

    def test_primary_down_blocks_everyone(self, ring6):
        topo, state, tracker = ring6
        proto = PrimaryCopyProtocol(primary_site=2)
        state.fail_site(2)
        read_mask, write_mask = proto.grant_masks(tracker)
        assert not read_mask.any() and not write_mask.any()

    def test_masks_are_independent_copies(self, ring6):
        topo, state, tracker = ring6
        proto = PrimaryCopyProtocol(0)
        read_mask, write_mask = proto.grant_masks(tracker)
        read_mask[0] = False
        assert write_mask[0]

    def test_bad_primary(self, ring6):
        topo, state, tracker = ring6
        with pytest.raises(ProtocolError):
            PrimaryCopyProtocol(-1)
        with pytest.raises(ProtocolError):
            PrimaryCopyProtocol(10).grant_masks(tracker)

"""``grant_masks`` hands out arrays it never touches again.

The epoch ledger stores an epoch's masks only when they are not the very
objects of the epoch before (DESIGN.md §8), the memoizing protocols
re-serve a pair between state changes, and callers hold masks across calls. All
of that is sound only under the contract in
``ReplicaControlProtocol.grant_masks``: a returned array is never mutated
afterwards, and the same objects come back only while their contents are
unchanged. Every concrete protocol is driven through random flip sequences
here, holding a copy of every pair it ever handed out.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ProtocolError
from repro.protocols.adaptive import AdaptiveQuorumProtocol
from repro.protocols.base import ReplicaControlProtocol
from repro.protocols.dynamic_voting import DynamicVotingProtocol
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.primary_copy import PrimaryCopyProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.serving import ServeConfig
from repro.serving.service import AdaptiveQuorumService
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring_with_chords

N = 6
TOPOLOGY = ring_with_chords(N, 2)


def _reassignment():
    return QuorumReassignmentProtocol(N, QuorumAssignment.majority(N))


def _serving_qr():
    """The memoizing QR the serving service hands its database."""
    config = ServeConfig(
        topology=TOPOLOGY,
        workload=AccessWorkload.uniform(N, 0.7),
        initial_assignment=QuorumAssignment.from_read_quorum(N, 2),
        n_requests=1,
    )
    return AdaptiveQuorumService(config).qr


PROTOCOLS = {
    "quorum-consensus": lambda: QuorumConsensusProtocol(
        QuorumAssignment.from_read_quorum(N, 2)),
    "majority": lambda: MajorityConsensusProtocol(N),
    "rowa": lambda: ReadOneWriteAllProtocol(N),
    "primary-copy": lambda: PrimaryCopyProtocol(2),
    "dynamic-voting": lambda: DynamicVotingProtocol(N),
    "reassignment": _reassignment,
    "adaptive": lambda: AdaptiveQuorumProtocol(N, N, min_observation_weight=3.0),
    "mask-caching": _serving_qr,
}

#: ``(is a site, index, read quorum to try installing afterwards or 0)``.
FLIPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, N - 1), st.integers(0, N // 2)),
    min_size=1, max_size=40,
)


def hand_out(protocol, flips):
    """Drive one tracker through ``flips``.

    Returns ``(masks, copies of them, vote totals then)`` for every pair
    the protocol handed out, two reads per state.
    """
    state = NetworkState(TOPOLOGY)
    tracker = ComponentTracker(state)
    protocol.reset()
    protocol.on_network_change(tracker)
    held = []

    def read():
        masks = protocol.grant_masks(tracker)
        held.append((masks, tuple(mask.copy() for mask in masks),
                     tracker.vote_totals.copy()))

    read()
    for is_site, index, install in flips:
        if is_site:
            state.set_site(index, not state.site_up[index])
        else:
            state.set_link(index, not state.link_up[index])
        protocol.on_network_change(tracker)
        read()
        read()
        qr = getattr(protocol, "qr", protocol)  # the adaptive protocol's inner QR
        if install and hasattr(qr, "try_reassign"):
            qr.try_reassign(tracker, index, QuorumAssignment.from_read_quorum(N, install))
            read()
        record_epoch = getattr(protocol, "record_epoch", None)
        if record_epoch is not None:  # lets the adaptive protocol re-tune itself
            record_epoch(tracker, 1.0)
    return held


def assert_nothing_held_was_touched(held):
    for (read_mask, write_mask), (read_copy, write_copy), _ in held:
        assert np.array_equal(read_mask, read_copy)
        assert np.array_equal(write_mask, write_copy)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@settings(max_examples=40, deadline=None)
@given(flips=FLIPS)
def test_masks_handed_out_are_never_mutated(name, flips):
    held = hand_out(PROTOCOLS[name](), flips)
    assert len(held) > len(flips)
    assert_nothing_held_was_touched(held)


@pytest.mark.parametrize("name", ["quorum-consensus", "majority", "rowa"])
@settings(max_examples=40, deadline=None)
@given(flips=FLIPS)
def test_remembered_masks_are_never_stale(name, flips):
    protocol = PROTOCOLS[name]()
    assignment = protocol.assignment
    for _, (read_mask, write_mask), totals in hand_out(protocol, flips):
        assert np.array_equal(read_mask, totals >= assignment.read_quorum)
        assert np.array_equal(write_mask, totals >= assignment.write_quorum)


class RefillsOneMask(ReplicaControlProtocol):
    """The mutant: one preallocated pair, refilled in place on every call."""

    def __init__(self):
        self._read = np.zeros(N, dtype=bool)
        self._write = np.zeros(N, dtype=bool)

    def grant_masks(self, tracker):
        np.greater_equal(tracker.vote_totals, 2, out=self._read)
        np.greater_equal(tracker.vote_totals, N - 1, out=self._write)
        return self._read, self._write


def test_the_check_catches_a_protocol_that_refills_its_masks():
    flips = [(True, 0, 0), (True, 1, 0), (True, 2, 0), (True, 3, 0), (True, 4, 0)]
    with pytest.raises(AssertionError):
        assert_nothing_held_was_touched(hand_out(RefillsOneMask(), flips))


class TestQuorumConsensusMemo:
    """Same ``vote_totals`` object, same masks; anything else, fresh ones."""

    def setup_method(self):
        self.state = NetworkState(TOPOLOGY)
        self.tracker = ComponentTracker(self.state)
        self.protocol = QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(N, 2))

    def test_unchanged_totals_object_yields_the_same_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        again = self.protocol.grant_masks(self.tracker)
        assert again[0] is first[0] and again[1] is first[1]
        # A flip that changes nothing: the tracker returns the same arrays.
        totals = self.tracker.vote_totals
        self.state.fail_link(0)  # ring + chords: still connected
        assert self.tracker.vote_totals is totals
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is first[0] and after[1] is first[1]

    def test_changed_totals_yield_fresh_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        kept = tuple(mask.copy() for mask in first)
        self.state.fail_site(3)
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is not first[0] and after[1] is not first[1]
        assert not after[0][3] and first[0][3]
        assert np.array_equal(first[0], kept[0]) and np.array_equal(first[1], kept[1])

    def test_reset_forgets_the_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        self.protocol.reset()
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is not first[0] and after[1] is not first[1]
        assert np.array_equal(after[0], first[0])

    def test_a_second_tracker_never_sees_the_firsts_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        other_state = NetworkState(TOPOLOGY)
        other_state.fail_site(1)
        other = self.protocol.grant_masks(ComponentTracker(other_state))
        assert other[0] is not first[0] and not other[0][1] and first[0][1]
        # ...and back: the first tracker's totals are not the remembered ones.
        back = self.protocol.grant_masks(self.tracker)
        assert back[0][1] and np.array_equal(back[0], first[0])

    def test_wrong_vote_total_is_still_refused_after_a_hit(self):
        self.protocol.grant_masks(self.tracker)
        votes = np.full(N, 2)
        with pytest.raises(ProtocolError):
            self.protocol.grant_masks(ComponentTracker(self.state, votes=votes))

    def test_the_memo_holds_the_array_not_its_id(self):
        # ``is`` against a remembered array is only sound while that array is
        # alive: once freed, its id can be handed to an array of other votes.
        class Totals:
            total_votes = N

        tracker = Totals()
        tracker.vote_totals = np.full(N, N)
        remembered = weakref.ref(tracker.vote_totals)
        assert self.protocol.grant_masks(tracker)[0].all()
        tracker.vote_totals = None
        assert remembered() is not None  # the protocol keeps it alive

    def test_a_recycled_id_is_not_mistaken_for_the_same_totals(self):
        # The behaviour the held reference buys: free the array the masks were
        # computed from and look for a new one at the same address.
        class Totals:
            total_votes = N
            vote_totals = None

        tracker = Totals()
        for _ in range(20):
            tracker.vote_totals = np.full(N, N)
            assert self.protocol.grant_masks(tracker)[0].all()
            tracker.vote_totals = None
            fresh = [np.zeros(N, dtype=np.int64) for _ in range(64)]
            for array in fresh:  # an id-keyed memo finds its key among these
                tracker.vote_totals = array
                assert not self.protocol.grant_masks(tracker)[0].any()


class TestReassignmentMemo:
    """QR's memo: same partition, version and install count, same masks."""

    def setup_method(self):
        self.state = NetworkState(TOPOLOGY)
        self.tracker = ComponentTracker(self.state)
        self.protocol = _reassignment()
        self.protocol.on_network_change(self.tracker)

    def test_unchanged_partition_yields_the_same_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        again = self.protocol.grant_masks(self.tracker)
        assert again[0] is first[0] and again[1] is first[1]
        totals = self.tracker.vote_totals
        self.state.fail_link(0)  # ring + chords: still connected
        self.protocol.on_network_change(self.tracker)
        assert self.tracker.vote_totals is totals
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is first[0] and after[1] is first[1]

    def test_changed_partition_yields_fresh_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        self.state.fail_site(3)
        self.protocol.on_network_change(self.tracker)
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is not first[0] and after[1] is not first[1]
        assert not after[0][3] and first[0][3]

    def test_an_install_yields_fresh_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        kept = tuple(mask.copy() for mask in first)
        rowa = QuorumAssignment.read_one_write_all(N)
        assert self.protocol.try_reassign(self.tracker, 0, rowa)
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is not first[0] and after[1] is not first[1]
        assert after[0].all() and after[1].all()
        # Under ROWA one site down leaves reads everywhere and writes nowhere.
        self.state.fail_site(3)
        self.protocol.on_network_change(self.tracker)
        down = self.protocol.grant_masks(self.tracker)
        assert down[0].sum() == N - 1 and not down[1].any()
        assert np.array_equal(first[0], kept[0]) and np.array_equal(first[1], kept[1])

    def test_reset_forgets_the_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        self.protocol.reset()
        after = self.protocol.grant_masks(self.tracker)
        assert after[0] is not first[0] and after[1] is not first[1]
        assert np.array_equal(after[0], first[0])

    def test_a_second_tracker_never_sees_the_firsts_masks(self):
        first = self.protocol.grant_masks(self.tracker)
        other_state = NetworkState(TOPOLOGY)
        other_state.fail_site(1)
        other = self.protocol.grant_masks(ComponentTracker(other_state))
        assert other[0] is not first[0] and not other[0][1] and first[0][1]
        back = self.protocol.grant_masks(self.tracker)
        assert back[0][1] and np.array_equal(back[0], first[0])

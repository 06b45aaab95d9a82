"""Unit tests for NetworkState and ComponentTracker."""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import TopologyError
from repro.topology.generators import ring, ring_with_chords
from repro.topology.model import Topology


class TestNetworkState:
    def test_initial_all_up(self):
        state = NetworkState(ring(5))
        assert state.all_up()

    def test_mutations_bump_version(self):
        state = NetworkState(ring(5))
        v0 = state.version
        state.fail_site(2)
        state.fail_link(0)
        assert state.version == v0 + 2
        assert not state.all_up()

    def test_repair_restores(self):
        state = NetworkState(ring(5))
        state.fail_site(1)
        state.repair_site(1)
        assert state.all_up()

    def test_bad_indices(self):
        state = NetworkState(ring(4))
        with pytest.raises(TopologyError):
            state.fail_site(4)
        with pytest.raises(TopologyError):
            state.fail_link(99)

    def test_explicit_masks_validated(self):
        with pytest.raises(TopologyError):
            NetworkState(ring(4), site_up=np.ones(3, bool))
        with pytest.raises(TopologyError):
            NetworkState(ring(4), link_up=np.ones(3, bool))

    def test_copy_is_independent(self):
        state = NetworkState(ring(4))
        clone = state.copy()
        clone.fail_site(0)
        assert state.all_up()
        assert not clone.all_up()


class TestComponentTracker:
    def test_vote_totals_follow_mutations(self):
        topo = ring(6)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        assert (tracker.vote_totals == 6).all()
        state.fail_link(topo.link_id(0, 1))
        state.fail_link(topo.link_id(2, 3))
        assert tracker.votes_at(1) == 2
        assert tracker.votes_at(4) == 4

    def test_cache_reused_between_changes(self):
        state = NetworkState(ring(5))
        tracker = ComponentTracker(state)
        first = tracker.vote_totals
        second = tracker.vote_totals
        assert first is second  # same array object: cache hit

    def test_cache_invalidated_on_change(self):
        state = NetworkState(ring(5))
        tracker = ComponentTracker(state)
        before = tracker.vote_totals
        state.fail_site(0)
        after = tracker.vote_totals
        assert before is not after

    def test_component_of_and_same_component(self):
        topo = ring(6)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        state.fail_site(0)
        state.fail_site(3)
        assert set(tracker.component_of(1).tolist()) == {1, 2}
        assert set(tracker.component_of(4).tolist()) == {4, 5}
        assert tracker.component_of(0).size == 0
        # One dtype on both paths, and a real bool (``is True``, json.dumps).
        assert tracker.component_of(0).dtype == tracker.component_of(1).dtype

    def test_component_of_is_answered_once_per_state_version(self):
        topo = ring(6)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        state.fail_site(0)
        state.fail_site(3)
        members = tracker.component_of(1)
        # Any site of the component, any number of calls: one array.
        assert tracker.component_of(2) is tracker.component_of(1) is members
        assert tracker.component_of(4) is not members
        assert not members.flags.writeable
        # A new version forgets it, even when the labels did not move
        # (a link flip at a down site), and a real change is seen.
        state.fail_link(topo.link_id(0, 1))
        assert tracker.component_of(1) is not members
        assert tracker.component_of(1).tolist() == [1, 2]
        state.repair_site(3)
        assert tracker.component_of(1).tolist() == [1, 2, 3, 4, 5]
        assert members.tolist() == [1, 2]

    def test_weighted_votes(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)], votes=[5, 1, 1, 3])
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        state.fail_link(topo.link_id(1, 2))
        assert tracker.votes_at(0) == 6
        assert tracker.votes_at(3) == 4

    def test_chorded_ring_resilience(self):
        """A chord keeps the ring whole when one ring link dies."""
        topo = ring_with_chords(10, 1)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        state.fail_link(topo.link_id(0, 1))
        assert (tracker.vote_totals == 10).all()

    def test_copy_on_write_only_when_something_changes(self):
        """Unchanged refreshes return the identical arrays; a split copies."""
        topo = ring(6)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        labels, totals = tracker.labels, tracker.vote_totals

        def unchanged():
            return tracker.labels is labels and tracker.vote_totals is totals

        state.fail_link(topo.link_id(0, 1))  # the ring holds the long way round
        assert unchanged()
        state.repair_link(topo.link_id(0, 1))  # both ends already together
        assert unchanged()
        state.repair_site(3)  # no-op flip: the site was up
        assert unchanged()
        assert tracker.n_incremental == 3 and tracker.n_full == 1

        state.fail_site(3)
        assert not unchanged()
        labels, totals = tracker.labels, tracker.vote_totals
        state.fail_link(topo.link_id(3, 4))  # dead endpoint
        assert unchanged()

        held = labels.copy(), totals.copy()
        state.fail_link(topo.link_id(0, 1))  # cuts the path 4-5-0-1-2
        assert tracker.labels is not labels and tracker.vote_totals is not totals
        assert tracker.vote_totals.tolist() == [3, 2, 2, 0, 3, 3]
        assert labels.tobytes() == held[0].tobytes()
        assert totals.tobytes() == held[1].tobytes()


def _primed(topology, **kwargs):
    """A tracker one read in: every later single flip is incremental."""
    state = NetworkState(topology)
    tracker = ComponentTracker(state, **kwargs)
    tracker.labels
    return state, tracker


class TestLinkFlipsUnderDownSites:
    """A link that flips while an endpoint is down changes no component then,
    but decides what the endpoint's repair merges with: the tracker's own
    picture of the up links must follow it all the same."""

    PATH = Topology(3, [(0, 1), (1, 2)])  # link ids: 0 = (0,1), 1 = (1,2)

    def _run(self, flips, expected_totals):
        state, tracker = _primed(self.PATH)
        for (kind, index, up), expected in zip(flips, expected_totals):
            (state.set_site if kind == "site" else state.set_link)(index, up)
            assert tracker.vote_totals.tolist() == expected, (kind, index, up)
        assert tracker.n_full == 1 and tracker.n_incremental == len(flips)

    def test_link_fails_under_a_down_endpoint(self):
        self._run(
            [("site", 1, False), ("link", 0, False),
             ("site", 1, True),   # must not merge over the dead link
             ("link", 0, True)],  # a second incremental event, on the same masks
            [[1, 0, 1], [1, 0, 1], [1, 2, 2], [3, 3, 3]],
        )

    def test_link_repairs_under_a_down_endpoint(self):
        self._run(
            [("link", 0, False), ("site", 1, False), ("link", 0, True),
             ("site", 1, True),    # must merge over the repaired link
             ("link", 1, False)],
            [[1, 2, 2], [1, 0, 1], [1, 0, 1], [3, 3, 3], [2, 2, 1]],
        )

    def test_link_fails_with_both_endpoints_down(self):
        self._run(
            [("site", 0, False), ("site", 1, False), ("link", 0, False),
             ("site", 0, True), ("site", 1, True), ("link", 0, True)],
            [[0, 2, 2], [0, 0, 1], [0, 0, 1], [1, 0, 1], [1, 2, 2], [3, 3, 3]],
        )

    def test_link_repairs_with_both_endpoints_down(self):
        self._run(
            [("link", 0, False), ("site", 0, False), ("site", 1, False),
             ("link", 0, True), ("site", 1, True), ("site", 0, True),
             ("site", 1, False)],
            [[1, 2, 2], [0, 2, 2], [0, 0, 1], [0, 0, 1], [0, 2, 2], [3, 3, 3],
             [1, 0, 1]],
        )


def test_masks_are_rebuilt_after_a_gap_of_several_flips():
    """Flips the tracker never applied (a full recompute took them in one
    go) must still be in the masks the next incremental failure floods."""
    topo = ring(6)
    state, tracker = _primed(topo)
    state.fail_link(topo.link_id(0, 1))
    assert tracker.vote_totals.tolist() == [6] * 6  # incremental: masks exist
    state.fail_link(topo.link_id(2, 3))
    state.repair_link(topo.link_id(0, 1))
    assert tracker.vote_totals.tolist() == [6] * 6  # two flips: full recompute
    state.fail_link(topo.link_id(4, 5))  # incremental again: 3-4 | 5-0-1-2
    assert tracker.vote_totals.tolist() == [4, 4, 4, 2, 2, 4]
    assert (tracker.n_incremental, tracker.n_full) == (2, 2)


class TestAuditCoversTheMasks:
    def test_corrupted_up_mask_raises_at_the_next_refresh(self):
        state, tracker = _primed(ring(6), audit_interval=1)
        state.fail_site(0)
        tracker.labels  # the audit passes
        tracker._up ^= 1 << 3
        state.repair_site(0)
        with pytest.raises(TopologyError, match=r"diverged in _up from"):
            tracker.labels

    def test_corrupted_adjacency_row_raises_at_the_next_refresh(self):
        state, tracker = _primed(ring(6), audit_interval=1)
        state.fail_site(0)
        tracker.labels
        tracker._adj[2] ^= 1 << 5
        state.repair_site(0)
        with pytest.raises(TopologyError, match=r"diverged in _adj from"):
            tracker.labels

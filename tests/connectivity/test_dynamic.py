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
        assert state.n_up_sites() == 5

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

    def test_max_component_votes(self):
        topo = ring(6)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        state.fail_site(0)
        assert tracker.max_component_votes() == 5
        for s in range(6):
            state.set_site(s, False)
        assert tracker.max_component_votes() == 0

    def test_component_of_and_same_component(self):
        topo = ring(6)
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        state.fail_site(0)
        state.fail_site(3)
        assert tracker.same_component(1, 2)
        assert not tracker.same_component(2, 4)
        assert set(tracker.component_of(1).tolist()) == {1, 2}
        assert tracker.component_of(0).size == 0

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
        assert tracker.max_component_votes() == 10

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

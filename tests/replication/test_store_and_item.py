"""Unit tests for SiteStore, CopyState, and ReplicatedItem."""

import numpy as np
import pytest

from repro.errors import ReproError, VoteAssignmentError
from repro.replication.item import ReplicatedItem
from repro.replication.store import CopyState, SiteStore
from repro.topology.generators import ring


class TestSiteStore:
    def test_initialize_and_read(self):
        store = SiteStore(3)
        store.initialize("x", "v0")
        copy = store.read("x")
        assert copy.value == "v0"
        assert copy.timestamp == 0

    def test_missing_copy(self):
        store = SiteStore(0)
        with pytest.raises(ReproError):
            store.read("nope")

    def test_write_monotone(self):
        store = SiteStore(0)
        store.initialize("x", None)
        store.install("x", CopyState("a", 1))
        store.install("x", CopyState("b", 3))
        assert store.read("x").value == "b"

    def test_stale_write_rejected(self):
        store = SiteStore(0)
        store.initialize("x", None)
        store.install("x", CopyState("a", 5))
        with pytest.raises(ReproError):
            store.install("x", CopyState("old", 5))
        with pytest.raises(ReproError):
            store.install("x", CopyState("older", 3))

    def test_multiple_items(self):
        store = SiteStore(0)
        store.initialize("x", 1)
        store.initialize("y", 2)
        store.install("x", CopyState(10, 1))
        assert store.read("y").value == 2
        assert set(store.items()) == {"x", "y"}

    def test_negative_site_rejected(self):
        with pytest.raises(ReproError):
            SiteStore(-1)

    def test_copystate_comparison(self):
        assert CopyState("b", 2).newer_than(CopyState("a", 1))
        assert not CopyState("a", 1).newer_than(CopyState("b", 2))


class TestReplicatedItem:
    def test_fully_replicated(self):
        topo = ring(5)
        item = ReplicatedItem.fully_replicated("x", topo)
        assert item.replica_sites == (0, 1, 2, 3, 4)
        assert item.total_votes == 5
        assert item.holds_copy(3)

    def test_partial_replication(self):
        item = ReplicatedItem.at_sites("x", [1, 3], votes=[2, 1])
        assert item.total_votes == 3
        assert not item.holds_copy(0)

    def test_votes_vector(self):
        item = ReplicatedItem.at_sites("x", [1, 3])
        np.testing.assert_array_equal(item.votes_vector(5), [0, 1, 0, 1, 0])

    def test_votes_vector_range_check(self):
        item = ReplicatedItem.at_sites("x", [4])
        with pytest.raises(ReproError):
            item.votes_vector(3)

    def test_negative_replica_site_rejected(self):
        # A negative site would wrap around in votes_vector: [-1, 0] put a
        # vote at site n - 1, which holds_copy() denies holding a copy.
        with pytest.raises(ReproError, match="negative replica site"):
            ReplicatedItem.at_sites("x", [-1, 0])

    def test_validation(self):
        with pytest.raises(ReproError):
            ReplicatedItem("", (0,), (1,))
        with pytest.raises(ReproError):
            ReplicatedItem("x", (), ())
        with pytest.raises(ReproError):
            ReplicatedItem("x", (0, 0), (1, 1))
        with pytest.raises(VoteAssignmentError):
            ReplicatedItem("x", (0, 1), (1,))
        with pytest.raises(VoteAssignmentError):
            ReplicatedItem("x", (0,), (-1,))
        with pytest.raises(VoteAssignmentError):
            ReplicatedItem("x", (0, 1), (0, 0))

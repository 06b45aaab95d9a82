"""Unit tests for the Topology and Link value objects."""

import numpy as np
import pytest

from repro.errors import TopologyError, VoteAssignmentError
from repro.topology.model import Link, Topology


class TestLink:
    def test_normalizes_endpoint_order(self):
        assert Link(5, 2).endpoints() == (2, 5)
        assert Link(2, 5) == Link(5, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Link(3, 3)

    def test_other_endpoint(self):
        link = Link(1, 4)
        assert link.other(1) == 4
        assert link.other(4) == 1

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(TopologyError):
            Link(1, 4).other(2)

    def test_ordering_is_lexicographic(self):
        assert Link(0, 1) < Link(0, 2) < Link(1, 2)


class TestTopologyConstruction:
    def test_basic_properties(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.n_sites == 4
        assert topo.n_links == 3
        assert topo.total_votes == 4
        assert list(topo.sites()) == [0, 1, 2, 3]

    def test_rejects_zero_sites(self):
        with pytest.raises(TopologyError):
            Topology(0, [])

    def test_rejects_out_of_range_link(self):
        with pytest.raises(TopologyError):
            Topology(3, [(0, 3)])

    def test_rejects_duplicate_link_any_orientation(self):
        with pytest.raises(TopologyError):
            Topology(3, [(0, 1), (1, 0)])

    def test_rejects_wrong_vote_length(self):
        with pytest.raises(VoteAssignmentError):
            Topology(3, [(0, 1)], votes=[1, 1])

    def test_rejects_negative_votes(self):
        with pytest.raises(VoteAssignmentError):
            Topology(3, [(0, 1)], votes=[1, -1, 1])

    def test_rejects_all_zero_votes(self):
        with pytest.raises(VoteAssignmentError):
            Topology(3, [(0, 1)], votes=[0, 0, 0])

    def test_votes_default_uniform(self):
        topo = Topology(5, [])
        assert np.array_equal(topo.votes, np.ones(5, dtype=np.int64))

    def test_votes_are_read_only(self):
        topo = Topology(3, [(0, 1)])
        with pytest.raises(ValueError):
            topo.votes[0] = 7

    def test_zero_vote_sites_allowed(self):
        topo = Topology(3, [(0, 1), (1, 2)], votes=[1, 0, 1])
        assert topo.total_votes == 2


class TestTopologyAccessors:
    def test_neighbors_sorted(self):
        topo = Topology(4, [(2, 0), (0, 3), (0, 1)])
        assert topo.neighbors(0) == (1, 2, 3)
        assert topo.degree(0) == 3
        assert topo.degree(1) == 1

    def test_neighbors_unknown_site(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1)]).neighbors(9)

    def test_has_link_and_link_id(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        assert topo.link_id(1, 0) == 0
        assert topo.links[topo.link_id(3, 2)] == Link(2, 3)
        for a, b in ((0, 2), (1, 1)):
            with pytest.raises(TopologyError):
                topo.link_id(a, b)

    def test_link_id_missing(self):
        with pytest.raises(TopologyError):
            Topology(4, [(0, 1)]).link_id(2, 3)

    def test_link_endpoint_arrays(self):
        topo = Topology(4, [(0, 1), (1, 2), (0, 3)])
        u, v = topo.link_endpoint_arrays()
        assert (u < v).all()
        assert len(u) == 3

    def test_link_endpoint_arrays_empty(self):
        u, v = Topology(2, []).link_endpoint_arrays()
        assert u.size == 0 and v.size == 0

    def test_link_endpoint_arrays_are_sorted_or_refused(self):
        """Link ids ascend by ``(u, v)`` whatever order the links came in;
        the batched labeller's direct-CSR build depends on it, so a
        topology whose links lost that order refuses to hand them out."""
        topo = Topology(4, [(2, 3), (1, 0), (3, 0), (1, 2)])
        u, v = topo.link_endpoint_arrays()
        assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        unsorted = Topology(4, [(0, 1), (1, 2), (2, 3)])
        object.__setattr__(unsorted, "_links", unsorted.links[::-1])
        with pytest.raises(TopologyError, match="not sorted"):
            unsorted.link_endpoint_arrays()


class TestDerivedTopologies:
    def test_with_votes(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        weighted = topo.with_votes([3, 1, 2])
        assert weighted.total_votes == 6
        assert topo.total_votes == 3  # original unchanged

    def test_add_links(self):
        topo = Topology(3, [(0, 1)])
        bigger = topo.add_links([(1, 2)])
        assert bigger.n_links == 2
        assert topo.n_links == 1

    def test_add_duplicate_link_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, [(0, 1)]).add_links([(1, 0)])


class TestStructurePredicates:
    def test_ring_detection(self):
        ring3 = Topology(3, [(0, 1), (1, 2), (0, 2)])
        assert ring3.is_ring()
        path = Topology(3, [(0, 1), (1, 2)])
        assert not path.is_ring()

    def test_two_disjoint_triangles_not_ring(self):
        topo = Topology(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not topo.is_ring()

    def test_fully_connected_detection(self):
        assert Topology(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]).is_fully_connected()
        assert not Topology(4, [(0, 1)]).is_fully_connected()
        assert Topology(1, []).is_fully_connected()

    def test_connectivity(self):
        assert Topology(3, [(0, 1), (1, 2)]).is_connected()
        assert not Topology(3, [(0, 1)]).is_connected()
        assert Topology(1, []).is_connected()


class TestDunder:
    def test_equality_and_hash(self):
        a = Topology(3, [(0, 1), (1, 2)])
        b = Topology(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_by_votes(self):
        a = Topology(3, [(0, 1)])
        b = Topology(3, [(0, 1)], votes=[2, 1, 1])
        assert a != b

    def test_repr_contains_vitals(self):
        topo = Topology(3, [(0, 1)], name="probe")
        assert "probe" in repr(topo)
        assert "n_sites=3" in repr(topo)

"""Unit tests for component labelling and vote totals."""

import numpy as np
import pytest

from repro.connectivity.components import (
    DOWN_LABEL,
    batched_component_labels,
    component_labels,
    component_vote_totals,
)
from repro.errors import TopologyError
from repro.topology.generators import fully_connected, ring
from repro.topology.model import Topology
from tests.oracles import minlabel_component_labels, perstate_vote_histogram


def all_up(topo):
    return np.ones(topo.n_sites, bool), np.ones(topo.n_links, bool)


class TestComponentLabels:
    def test_everything_up_single_component(self):
        topo = ring(6)
        labels = component_labels(topo, *all_up(topo))
        assert set(labels.tolist()) == {0}

    def test_down_site_gets_down_label(self):
        topo = ring(5)
        site_up, link_up = all_up(topo)
        site_up[2] = False
        labels = component_labels(topo, site_up, link_up)
        assert labels[2] == DOWN_LABEL
        # Remaining sites 3,4,0,1 still connected around the ring.
        assert len({labels[i] for i in (0, 1, 3, 4)}) == 1

    def test_link_failures_partition_ring(self):
        topo = ring(6)
        site_up, link_up = all_up(topo)
        link_up[topo.link_id(0, 1)] = False
        link_up[topo.link_id(3, 4)] = False
        labels = component_labels(topo, site_up, link_up)
        assert labels[1] == labels[2] == labels[3]
        assert labels[4] == labels[5] == labels[0]
        assert labels[1] != labels[4]

    def test_down_endpoint_disables_link(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        site_up = np.array([True, False, True])
        link_up = np.ones(2, bool)
        labels = component_labels(topo, site_up, link_up)
        assert labels[0] != labels[2]

    def test_labels_are_consecutive_from_zero(self):
        topo = ring(8)
        site_up, link_up = all_up(topo)
        link_up[:] = False
        labels = component_labels(topo, site_up, link_up)
        assert sorted(set(labels.tolist())) == list(range(8))

    def test_all_sites_down(self):
        topo = ring(4)
        labels = component_labels(topo, np.zeros(4, bool), np.ones(4, bool))
        assert (labels == DOWN_LABEL).all()

    def test_shape_validation(self):
        topo = ring(4)
        with pytest.raises(TopologyError):
            component_labels(topo, np.ones(3, bool), np.ones(4, bool))
        with pytest.raises(TopologyError):
            component_labels(topo, np.ones(4, bool), np.ones(3, bool))


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_unionfind_matches_csgraph_on_random_states(self, seed):
        # The name is older than the flood: the two single-state labellers
        # are now the flood and the B = 1 block, and with the independent
        # witness they keep one label contract, entry for entry.
        rng = np.random.default_rng(seed)
        topo = fully_connected(9)
        site_up = rng.random(topo.n_sites) < 0.7
        link_up = rng.random(topo.n_links) < 0.5
        a = component_labels(topo, site_up, link_up)
        b = batched_component_labels(topo, site_up[None], link_up[None])[0]
        assert np.array_equal(a, b)
        assert np.array_equal(
            a, minlabel_component_labels(topo, site_up, link_up))


class TestVoteTotals:
    def test_totals_per_component(self):
        topo = Topology(4, [(0, 1), (2, 3)], votes=[1, 2, 3, 4])
        labels = component_labels(topo, *all_up(topo))
        totals = component_vote_totals(labels, topo.votes)
        assert totals[0] == totals[1] == 3
        assert totals[2] == totals[3] == 7

    def test_down_site_zero_votes(self):
        topo = ring(4)
        site_up, link_up = all_up(topo)
        site_up[1] = False
        labels = component_labels(topo, site_up, link_up)
        totals = component_vote_totals(labels, topo.votes)
        assert totals[1] == 0
        assert totals[0] == 3

    def test_shape_mismatch(self):
        with pytest.raises(TopologyError):
            component_vote_totals(np.array([0, 0]), np.array([1, 1, 1]))


class TestBatchedLabels:
    """batched_component_labels / batched_vote_totals vs the scalar path."""

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_labels_match_scalar_partition(self, seed):
        rng = np.random.default_rng(seed)
        topo = ring(8)
        site_masks = rng.random((12, topo.n_sites)) < 0.7
        link_masks = rng.random((12, topo.n_links)) < 0.6
        batched = batched_component_labels(topo, site_masks, link_masks)
        for k in range(12):
            scalar = component_labels(topo, site_masks[k], link_masks[k])
            assert (batched[k] == DOWN_LABEL).tolist() == (scalar == DOWN_LABEL).tolist()
            up = scalar >= 0
            for i in np.nonzero(up)[0]:
                for j in np.nonzero(up)[0]:
                    assert (batched[k][i] == batched[k][j]) == (scalar[i] == scalar[j])

    @pytest.mark.parametrize("seed", range(5))
    def test_fused_totals_match_scalar_totals(self, seed):
        from repro.connectivity.components import batched_vote_totals

        rng = np.random.default_rng(seed)
        topo = Topology(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
                        votes=[1, 2, 1, 3, 1, 2])
        site_masks = rng.random((10, topo.n_sites)) < 0.75
        link_masks = rng.random((10, topo.n_links)) < 0.65
        totals = batched_vote_totals(topo, site_masks, link_masks)
        for k in range(10):
            labels = component_labels(topo, site_masks[k], link_masks[k])
            expected = component_vote_totals(labels, topo.votes)
            np.testing.assert_array_equal(totals[k], expected)

    def test_batched_shape_validation(self):
        from repro.connectivity.components import (
            batched_component_labels,
            batched_vote_totals,
        )

        topo = ring(5)
        good_sites = np.ones((3, 5), bool)
        with pytest.raises(TopologyError):
            batched_component_labels(topo, good_sites, np.ones((2, 5), bool))
        with pytest.raises(TopologyError):
            batched_vote_totals(topo, np.ones((3, 4), bool), np.ones((3, 5), bool))


class TestVoteHistogram:
    """batched_vote_histogram (masks -> counts) vs the per-state loop."""

    WEIGHTED = Topology(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
                        votes=[1, 0, 2, 3, 0, 1])

    @staticmethod
    def masks(topo, count, seed, p=0.75, r=0.65):
        rng = np.random.default_rng(seed)
        return (rng.random((count, topo.n_sites)) < p,
                rng.random((count, topo.n_links)) < r)

    @pytest.mark.parametrize("topo", [ring(8), fully_connected(5), WEIGHTED],
                             ids=["ring", "complete", "zero-vote-sites"])
    @pytest.mark.parametrize("count", [1, 12])
    def test_counts_match_perstate_loop(self, topo, count):
        from repro.connectivity.components import batched_vote_histogram

        for seed in range(4):
            site_masks, link_masks = self.masks(topo, count, seed)
            counts = batched_vote_histogram(topo, site_masks, link_masks)
            assert counts.dtype == np.float64
            np.testing.assert_array_equal(
                counts, perstate_vote_histogram(topo, site_masks, link_masks))
            np.testing.assert_array_equal(counts.sum(axis=1), float(count))

    def test_no_links(self):
        from repro.connectivity.components import batched_vote_histogram

        topo = Topology(3, [], votes=[2, 0, 1])
        site_masks, link_masks = self.masks(topo, 9, seed=2)
        assert link_masks.shape == (9, 0)
        np.testing.assert_array_equal(
            batched_vote_histogram(topo, site_masks, link_masks),
            perstate_vote_histogram(topo, site_masks, link_masks))

    def test_all_down_block_lands_in_bin_zero(self):
        from repro.connectivity.components import batched_vote_histogram

        topo = ring(5)
        counts = batched_vote_histogram(
            topo, np.zeros((4, 5), bool), np.ones((4, 5), bool))
        expected = np.zeros((5, 6))
        expected[:, 0] = 4.0
        np.testing.assert_array_equal(counts, expected)

    def test_votes_override_on_the_totals(self):
        from repro.connectivity.components import batched_vote_totals

        topo = ring(7)
        votes = np.array([3, 0, 1, 1, 0, 2, 5])
        site_masks, link_masks = self.masks(topo, 10, seed=4)
        totals = batched_vote_totals(topo, site_masks, link_masks, votes=votes)
        for k in range(10):
            labels = component_labels(topo, site_masks[k], link_masks[k])
            np.testing.assert_array_equal(
                totals[k], component_vote_totals(labels, votes))


def _random_topology(rng):
    """A seeded random graph whose votes include 0 and values above 1."""
    n = int(rng.integers(3, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    links = [pair for pair in pairs if rng.random() < 0.35]
    votes = rng.integers(0, 4, size=n)
    votes[0] = max(int(votes[0]), 2)
    votes[-1] = 0
    return Topology(n, links, votes=votes.tolist())


class TestEntryVoteTotals:
    """The one binning helper against the per-state labelling oracle."""

    @staticmethod
    def masks(topo, count, rng):
        site_masks = rng.random((count, topo.n_sites)) < 0.7
        site_masks[0] = False  # an all-down state
        return site_masks, rng.random((count, topo.n_links)) < 0.6

    @pytest.mark.parametrize("count", [1, 9])
    @pytest.mark.parametrize("seed", range(6))
    def test_totals_match_perstate_oracle(self, seed, count):
        from repro.connectivity.components import (
            batched_component_labels,
            batched_vote_totals,
            entry_vote_totals,
        )

        rng = np.random.default_rng(seed)
        topo = _random_topology(rng)
        site_masks, link_masks = self.masks(topo, count, rng)
        expected = np.stack([
            component_vote_totals(
                component_labels(topo, site_masks[k], link_masks[k]), topo.votes)
            for k in range(count)
        ])
        fused = batched_vote_totals(topo, site_masks, link_masks)
        assert fused.dtype == np.int64
        np.testing.assert_array_equal(fused, expected)
        labels = batched_component_labels(topo, site_masks, link_masks)
        n_ids = int(labels.max()) + 1
        np.testing.assert_array_equal(
            entry_vote_totals(labels, labels >= 0, topo.votes, n_ids), expected)
        assert not expected[0].any()

    def test_unit_votes_count_without_weights(self):
        from repro.connectivity.components import entry_vote_totals

        ids = np.array([[0, 0, 1, 2], [3, 3, 3, 4]])
        up = np.array([[True, True, True, False], [True, False, True, True]])
        np.testing.assert_array_equal(
            entry_vote_totals(ids, up, np.ones(4, np.int64), 5),
            [[2, 2, 1, 0], [2, 0, 2, 1]])
        np.testing.assert_array_equal(
            entry_vote_totals(ids, up, np.array([1, 0, 3, 2]), 5),
            [[1, 1, 3, 0], [4, 0, 4, 2]])


class TestVotesOverrideValidation:
    """``batched_vote_totals(votes=...)`` takes ``n_sites`` non-negative
    integers and nothing that merely broadcasts."""

    TOPO = ring(5)
    SITES = np.ones((2, 5), bool)
    LINKS = np.ones((2, 5), bool)

    @pytest.mark.parametrize("votes", [
        pytest.param([3], id="one-value-broadcast"),
        pytest.param(np.ones((2, 1), np.int64), id="per-state-column"),
        pytest.param(np.ones((2, 5), np.int64), id="per-state-matrix"),
        pytest.param([1, -4, 1, 1, 1], id="negative"),
        pytest.param([1.0, 2.0, 1.0, 1.0, 1.0], id="floats"),
    ])
    def test_rejected(self, votes):
        from repro.connectivity.components import batched_vote_totals

        with pytest.raises(TopologyError, match="votes must"):
            batched_vote_totals(self.TOPO, self.SITES, self.LINKS, votes=votes)

    def test_accepted_override(self):
        from repro.connectivity.components import batched_vote_totals

        totals = batched_vote_totals(self.TOPO, self.SITES, self.LINKS,
                                     votes=[3, 0, 1, 1, 2])
        np.testing.assert_array_equal(totals, np.full((2, 5), 7))

"""Quorum consensus against the coterie rule (the paper's footnote 1).

Rendered as a coterie, ``(q_r, q_w)`` lets a component read (write) iff
it contains a minimal site set holding ``q_r`` (``q_w``) votes.
``tests/oracles.py`` enumerates those sets and applies the rule one
component at a time; ``QuorumConsensusProtocol`` compares vote totals
against thresholds. The two must grant exactly the same sites.
"""

import numpy as np
import pytest

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.topology.generators import ring, ring_with_chords
from tests.oracles import group_grant_masks, vote_quorum_groups


def coterie_masks(tracker, votes, assignment):
    return group_grant_masks(
        tracker.labels,
        vote_quorum_groups(votes, assignment.read_quorum),
        vote_quorum_groups(votes, assignment.write_quorum),
    )


class TestEquivalenceWithVoting:
    @pytest.mark.parametrize("q_r", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_quorum_consensus_on_random_partitions(self, q_r, seed):
        """The coterie rendering of (q_r, q_w) must make exactly the same
        grant decisions as the vote-counting implementation."""
        n = 7
        topo = ring_with_chords(n, 1)
        assignment = QuorumAssignment.from_read_quorum(n, q_r)
        vote_proto = QuorumConsensusProtocol(assignment)

        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        rng = np.random.default_rng(seed)
        for _ in range(60):
            k = int(rng.integers(0, topo.n_sites + topo.n_links))
            if k < topo.n_sites:
                state.set_site(k, not state.site_up[k])
            else:
                link = k - topo.n_sites
                state.set_link(link, not state.link_up[link])
            for a, b in zip(vote_proto.grant_masks(tracker),
                            coterie_masks(tracker, topo.votes, assignment)):
                np.testing.assert_array_equal(a, b)

    def test_weighted_votes_equivalence(self):
        topo = ring(4).with_votes([3, 1, 1, 1])
        state = NetworkState(topo)
        tracker = ComponentTracker(state)
        assignment = QuorumAssignment(6, 2, 5)
        vote_proto = QuorumConsensusProtocol(assignment)
        state.fail_link(topo.link_id(1, 2))
        for a, b in zip(vote_proto.grant_masks(tracker),
                        coterie_masks(tracker, topo.votes, assignment)):
            np.testing.assert_array_equal(a, b)

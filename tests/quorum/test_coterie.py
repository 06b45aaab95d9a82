"""The coterie view of vote assignments (the paper's footnote 1).

The minimal site sets holding ``q`` votes (``tests/oracles.py``) are what
the coterie-equivalence tests compare ``QuorumConsensusProtocol``
against; these tests pin that enumeration and, through it, the section
2.1 safety argument on concrete vote vectors.
"""

import itertools

import pytest

from tests.oracles import vote_quorum_groups


def groups(*sets):
    return {frozenset(s) for s in sets}


def assert_coterie(write_groups):
    """Write groups pairwise intersect and none contains another."""
    for g1, g2 in itertools.combinations(write_groups, 2):
        assert g1 & g2, (sorted(g1), sorted(g2))
        assert not (g1 <= g2 or g2 <= g1), (sorted(g1), sorted(g2))


class TestCoterieFromVotes:
    def test_uniform_majority(self):
        assert set(vote_quorum_groups([1, 1, 1], 2)) == groups({0, 1}, {1, 2}, {0, 2})

    def test_rowa_write_coterie_is_all_sites(self):
        assert vote_quorum_groups([1, 1, 1, 1], 4) == [frozenset({0, 1, 2, 3})]

    def test_weighted_votes(self):
        # Votes (3,1,1,1): T=6, q_w=4. Without site 0 at most 3 votes are
        # reachable, so every group is {0, x} — site 0 is a veto player.
        assert set(vote_quorum_groups([3, 1, 1, 1], 4)) == groups(
            {0, 1}, {0, 2}, {0, 3})

    def test_primary_copy_votes(self):
        assert vote_quorum_groups([0, 1, 0], 1) == [frozenset({1})]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_vote_coteries_always_validate(self, n):
        """Executable proof of the section 2.1 safety argument: any
        strict-majority write quorum over any vote vector yields a valid
        coterie (pairwise intersecting, minimal)."""
        for votes in itertools.product([0, 1, 2], repeat=n):
            if sum(votes) == 0:
                continue
            assert_coterie(vote_quorum_groups(votes, sum(votes) // 2 + 1))


class TestReadGroups:
    def test_read_groups_need_not_intersect(self):
        assert vote_quorum_groups([1, 1, 1, 1], 1) == [
            frozenset({s}) for s in range(4)]

    def test_read_groups_intersect_write_groups(self):
        """Condition 1 at the set level: q_r + q_w > T forces every read
        group to meet every write group."""
        votes = [2, 1, 1, 1, 1]
        T = sum(votes)
        for q_r in range(1, T // 2 + 1):
            writes = vote_quorum_groups(votes, T - q_r + 1)
            for rg in vote_quorum_groups(votes, q_r):
                for wg in writes:
                    assert rg & wg, (sorted(rg), sorted(wg))

"""Unit tests for QuorumAssignment and the section 2.1 constraints."""

import pytest

from repro.errors import QuorumConstraintError
from repro.quorum.assignment import QuorumAssignment


class TestConstraints:
    def test_valid_assignment(self):
        qa = QuorumAssignment(10, 3, 8)
        assert qa.read_quorum == 3
        assert qa.write_quorum == 8

    def test_condition_one_read_write_intersection(self):
        # q_r + q_w = 10 = T violates condition 1.
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment(10, 3, 7)

    def test_condition_two_write_write_intersection(self):
        # q_w = 5 = T/2 violates condition 2 even though q_r + q_w > T.
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment(10, 6, 5)

    def test_quorum_bounds(self):
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment(10, 0, 10)
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment(10, 11, 10)
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment(10, 1, 11)

    def test_positive_total(self):
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment(0, 1, 1)

    def test_immutable(self):
        qa = QuorumAssignment(10, 3, 8)
        with pytest.raises(AttributeError):
            qa.read_quorum = 5


class TestFromReadQuorum:
    @pytest.mark.parametrize("T", [2, 5, 10, 101])
    def test_paper_convention(self, T):
        for q_r in range(1, T // 2 + 1):
            qa = QuorumAssignment.from_read_quorum(T, q_r)
            assert qa.write_quorum == T - q_r + 1

    def test_rejects_dominated_quorums(self):
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment.from_read_quorum(10, 6)

    def test_rejects_zero(self):
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment.from_read_quorum(10, 0)

    def test_single_vote_system(self):
        qa = QuorumAssignment.from_read_quorum(1, 1)
        assert (qa.read_quorum, qa.write_quorum) == (1, 1)
        with pytest.raises(QuorumConstraintError):
            QuorumAssignment.from_read_quorum(1, 2)


class TestNamedInstances:
    def test_majority_even(self):
        qa = QuorumAssignment.majority(10)
        assert (qa.read_quorum, qa.write_quorum) == (5, 6)

    def test_majority_odd_uses_paper_convention(self):
        # The literal (floor(T/2), floor(T/2)+1) pair violates condition 1
        # for odd T; majority() must stay valid (see assignment.py).
        qa = QuorumAssignment.majority(101)
        assert qa.read_quorum == 50
        assert qa.write_quorum == 52

    def test_majority_degenerate(self):
        assert QuorumAssignment.majority(1).read_quorum == 1

    def test_rowa(self):
        qa = QuorumAssignment.read_one_write_all(7)
        assert (qa.read_quorum, qa.write_quorum) == (1, 7)


class TestDecisions:
    def test_allows_read_write(self):
        qa = QuorumAssignment(10, 3, 8)
        assert qa.allows_read(3)
        assert not qa.allows_read(2)
        assert qa.allows_write(8)
        assert not qa.allows_write(7)

    def test_allows_dispatch(self):
        qa = QuorumAssignment(10, 3, 8)
        assert qa.allows(5, is_read=True)
        assert not qa.allows(5, is_read=False)

    def test_down_site_zero_votes_denied(self):
        qa = QuorumAssignment.read_one_write_all(10)
        assert not qa.allows_read(0)
        assert not qa.allows_write(0)

    def test_str(self):
        assert str(QuorumAssignment(10, 3, 8)) == "(q_r=3, q_w=8, T=10)"

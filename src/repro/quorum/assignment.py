"""Quorum assignments and the section 2.1 consistency constraints.

A quorum assignment for a system with ``T`` total votes is the pair
``(q_r, q_w)``. Consistency (one-copy serializability) requires

1. ``q_r + q_w > T`` — every read quorum intersects every write quorum,
   so each read sees the most recent write;
2. ``q_w > T/2`` — every two write quorums intersect, so writes are
   totally ordered and simultaneous writes in disjoint partitions are
   impossible.

The paper treats ``q_r`` as the primary variable with
``q_w = T - q_r + 1`` (the loosest write quorum condition 1 permits) and
restricts ``1 <= q_r <= floor(T/2)`` since larger read quorums are
strictly dominated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuorumConstraintError

__all__ = ["QuorumAssignment"]


@dataclass(frozen=True)
class QuorumAssignment:
    """An immutable, validated ``(q_r, q_w)`` pair for ``T`` total votes."""

    total_votes: int
    read_quorum: int
    write_quorum: int

    def __post_init__(self) -> None:
        T, q_r, q_w = self.total_votes, self.read_quorum, self.write_quorum
        if T <= 0:
            raise QuorumConstraintError(f"total votes must be positive, got T={T}")
        if not 1 <= q_r <= T:
            raise QuorumConstraintError(f"read quorum must satisfy 1 <= q_r <= T, got q_r={q_r}, T={T}")
        if not 1 <= q_w <= T:
            raise QuorumConstraintError(f"write quorum must satisfy 1 <= q_w <= T, got q_w={q_w}, T={T}")
        if q_r + q_w <= T:
            raise QuorumConstraintError(
                f"read/write quorums must intersect: need q_r + q_w > T, got {q_r} + {q_w} <= {T}"
            )
        if 2 * q_w <= T:
            raise QuorumConstraintError(
                f"write quorums must intersect: need q_w > T/2, got q_w={q_w}, T={T}"
            )

    # ------------------------------------------------------------------
    # Constructors for the named protocol instances (section 2.1)
    # ------------------------------------------------------------------
    @classmethod
    def from_read_quorum(cls, total_votes: int, read_quorum: int) -> "QuorumAssignment":
        """The paper's convention: given ``q_r``, take ``q_w = T - q_r + 1``.

        ``read_quorum`` must lie in ``1 .. floor(T/2)``; anything larger is
        dominated (the same writes would be allowed with cheaper reads).
        """
        if not 1 <= read_quorum <= total_votes // 2 and total_votes > 1:
            raise QuorumConstraintError(
                f"q_r must lie in 1..floor(T/2) = 1..{total_votes // 2}, got {read_quorum}"
            )
        if total_votes == 1 and read_quorum != 1:
            raise QuorumConstraintError("with T = 1 the only read quorum is 1")
        return cls(total_votes, read_quorum, total_votes - read_quorum + 1)

    @classmethod
    def majority(cls, total_votes: int) -> "QuorumAssignment":
        """Majority consensus (Thomas '79): the ``q_r = floor(T/2)`` instance.

        The paper states the equivalence as ``q_r = floor(T/2)``,
        ``q_w = floor(T/2) + 1``, which satisfies condition 1
        (``q_r + q_w > T``) only for even ``T``; for odd ``T`` (including
        the paper's own 101-site system) that literal pair sums to exactly
        ``T``. We therefore take the paper's own assignment convention
        ``q_w = T - q_r + 1`` at ``q_r = floor(T/2)``, giving
        ``(T/2, T/2 + 1)`` for even ``T`` — the literal majority pair —
        and ``((T-1)/2, (T+3)/2)`` for odd ``T``, the right edge of every
        availability figure. With ``T = 1`` this degenerates to
        ``q_r = q_w = 1``.
        """
        if total_votes == 1:
            return cls(1, 1, 1)
        q_r = total_votes // 2
        return cls(total_votes, q_r, total_votes - q_r + 1)

    @classmethod
    def read_one_write_all(cls, total_votes: int) -> "QuorumAssignment":
        """The ROWA instance: ``q_r = 1``, ``q_w = T``."""
        return cls(total_votes, 1, total_votes)

    # ------------------------------------------------------------------
    def allows_read(self, component_votes: int) -> bool:
        """May a read proceed in a component holding ``component_votes``?"""
        return component_votes >= self.read_quorum

    def allows_write(self, component_votes: int) -> bool:
        """May a write proceed in a component holding ``component_votes``?"""
        return component_votes >= self.write_quorum

    def allows(self, component_votes: int, is_read: bool) -> bool:
        """Dispatch on operation kind."""
        return (
            self.allows_read(component_votes)
            if is_read
            else self.allows_write(component_votes)
        )

    def __str__(self) -> str:
        return f"(q_r={self.read_quorum}, q_w={self.write_quorum}, T={self.total_votes})"

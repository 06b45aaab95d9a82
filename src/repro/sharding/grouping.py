"""The one way to group items: rows that are equal form a class.

The paper's protocol sees an item only through a few numbers — its vote
vector and ``q_r`` for a grant decision, its vote vector and ``alpha``
for the Figure-1 optimum — so the engine's quorum classes and the
optimizer's workload signatures are both this partition.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["group_rows"]


def group_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Partition the rows of a 2-D array by exact equality.

    Returns ``(class_of, first)``: ``first[c]`` is the lowest row index of
    class ``c`` (its representative) and ``class_of[i]`` the class of row
    ``i``. Classes are numbered by first occurrence, so the partition is
    stable under appending rows and permutes predictably with them.
    Rows compare by value: ``0.0`` and ``-0.0`` are one class.
    """
    # A stable sort puts equal rows side by side, lowest index first.
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(rows.shape[0], dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]
    # Classes are so far numbered in sorted-row order; renumber them by
    # where each one first appears.
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    class_of = np.empty_like(order)
    class_of[order] = rank[np.cumsum(starts) - 1]
    return class_of, np.sort(first)

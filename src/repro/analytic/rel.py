"""Gilbert's recursion for the connectivity of a random complete graph.

``Rel(m, r)`` is the probability that all ``m`` sites of a fully-connected
network can communicate when sites never fail and each of the
``m(m-1)/2`` links is independently up with probability ``r`` (Gilbert,
*Random graphs*, Ann. Math. Stat. 30, 1959; paper, section 4.2):

    Rel(m, r) = 1 - sum_{i=1}^{m-1} C(m-1, i-1) (1-r)^{i(m-i)} Rel(i, r)

The sum removes, for each proper subset containing a fixed vertex, the
probability that exactly that subset forms the fixed vertex's connected
component (the subset is internally connected and every one of its
``i(m-i)`` links to the rest is down).

The recursion is O(m) per term given earlier terms, O(m^2) overall; we
keep one growable table per ``r``: a request for a larger ``m_max``
*extends* the stored table from where it left off instead of recomputing
it from scratch. The recursion for ``Rel(m, r)`` only reads
``Rel(1..m-1, r)``, so extension produces bit-for-bit the values a fresh
computation would — provided the stored values are the *raw* recursion
outputs. Clamping to ``[0, 1]`` therefore happens only on the returned
copy, never on the stored table.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import DensityError

__all__ = ["rel", "rel_table"]

#: Distinct link reliabilities to keep growable tables for (LRU-evicted).
MAX_CACHED_RELIABILITIES = 256

_RAW_TABLES: "OrderedDict[float, np.ndarray]" = OrderedDict()


def _raw_rel_table(m_max: int, r: float) -> np.ndarray:
    """Unclipped ``Rel(0..m_max, r)``, extending the per-``r`` table in place."""
    old = _RAW_TABLES.get(r)
    if old is not None and old.size > m_max:
        _RAW_TABLES.move_to_end(r)
        return old

    from scipy.special import comb

    table = np.empty(m_max + 1, dtype=np.float64)
    start = 2
    if old is None or old.size < 2:
        table[0] = 1.0  # vacuous: no sites, trivially connected
        if m_max >= 1:
            table[1] = 1.0
    else:
        table[: old.size] = old
        start = old.size
    one_minus_r = 1.0 - r
    for m in range(start, m_max + 1):
        i = np.arange(1, m)
        # C(m-1, i-1) * (1-r)^(i*(m-i)) * Rel(i, r)
        coeff = comb(m - 1, i - 1)
        if one_minus_r == 0.0:
            cut = np.zeros_like(i, dtype=np.float64)
        else:
            cut = one_minus_r ** (i * (m - i)).astype(np.float64)
        total = float(np.dot(coeff * cut, table[1:m]))
        table[m] = 1.0 - total

    _RAW_TABLES[r] = table
    _RAW_TABLES.move_to_end(r)
    while len(_RAW_TABLES) > MAX_CACHED_RELIABILITIES:
        _RAW_TABLES.popitem(last=False)
    return table


def rel_table(m_max: int, r: float) -> np.ndarray:
    """``Rel(m, r)`` for every ``m`` in ``0..m_max`` as one array."""
    if m_max < 0:
        raise DensityError(f"m_max must be non-negative, got {m_max}")
    if not 0.0 <= r <= 1.0:
        raise DensityError(f"link reliability must be in [0, 1], got {r}")
    raw = _raw_rel_table(m_max, float(r))
    # Floating point can push values a hair outside [0, 1]; clamp the
    # returned copy only — the stored raw table must stay extendable.
    return np.clip(raw[: m_max + 1], 0.0, 1.0)


def rel(m: int, r: float) -> float:
    """Probability that ``m`` sites of a complete graph are all connected.

    ``Rel(0, r)`` and ``Rel(1, r)`` are 1 by convention (no pair needs to
    communicate).
    """
    if m < 0:
        raise DensityError(f"m must be non-negative, got {m}")
    return float(rel_table(m, r)[m])

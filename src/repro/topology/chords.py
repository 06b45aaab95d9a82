"""Deterministic chord placement for ring-plus-chords topologies.

The paper evaluates "Topology i": a 101-site ring plus ``i`` additional
links (chords) for ``i in {0, 1, 2, 4, 16, 256, 4949}``, with the exact
chord placement deferred to the companion paper [14], which is not
available. DESIGN.md records the substitution we make here:

*Maximally-spread placement.* Chords are added in a deterministic order
that (a) keeps endpoints evenly rotated around the ring and (b) prefers
long chords (endpoints at near-antipodal ring distance). This matches the
paper's description of the topologies as "roughly symmetric" and
reproduces the qualitative progression ring -> fully connected as the
chord count grows.

The rule: enumerate candidate chords grouped by ring distance, longest
first (distance ``n//2`` down to 2 — distance-1 pairs are ring links). A
chord at distance ``d`` starting at site ``s`` joins ``s`` and
``(s + d) mod n``. Within one distance class we emit start sites in a
stride order that spreads them around the ring (stride chosen coprime to
``n`` and near ``n / phi`` so consecutive chords land far apart).
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, List, Tuple

from repro.errors import TopologyError

__all__ = ["chord_endpoints", "max_chords"]

_GOLDEN = (5**0.5 - 1) / 2  # 1/phi, the low-discrepancy rotation constant


def max_chords(n_sites: int) -> int:
    """Number of chords available on an ``n_sites`` ring.

    A complete graph has ``n(n-1)/2`` links; the ring already uses ``n`` of
    them (``n_sites >= 3``), leaving ``n(n-3)/2`` chords.
    """
    if n_sites < 3:
        raise TopologyError(f"a ring needs at least 3 sites, got {n_sites}")
    return n_sites * (n_sites - 3) // 2


def _spread_stride(n_sites: int) -> int:
    """A stride coprime to ``n_sites`` close to ``n_sites / phi``.

    Stepping start positions by this stride visits every site exactly once
    per distance class while keeping consecutive visits far apart — the
    classic golden-ratio low-discrepancy sequence, made integral.
    """
    target = max(1, round(n_sites * _GOLDEN))
    for offset in range(n_sites):
        for candidate in (target + offset, target - offset):
            if 1 <= candidate < n_sites and gcd(candidate, n_sites) == 1:
                return candidate
    return 1  # n_sites == 1 or 2 never reaches here; rings need n >= 3


def _distance_class(n_sites: int, distance: int) -> Iterator[Tuple[int, int]]:
    """Yield all chords of a given ring distance in spread order."""
    stride = _spread_stride(n_sites)
    antipodal = n_sites % 2 == 0 and distance == n_sites // 2
    # At the antipodal distance of an even ring each chord is generated
    # from both endpoints; only half the start sites give distinct chords.
    count = n_sites // 2 if antipodal else n_sites
    emitted = set()
    start = 0
    while len(emitted) < count:
        a, b = start, (start + distance) % n_sites
        key = (a, b) if a < b else (b, a)
        if key not in emitted:
            emitted.add(key)
            yield key
        start = (start + stride) % n_sites


def chord_endpoints(n_sites: int, n_chords: int) -> List[Tuple[int, int]]:
    """Return the first ``n_chords`` chords of the deterministic placement.

    Chords are emitted longest-distance-first, spread around the ring
    within each distance class. Raises :class:`TopologyError` when more
    chords are requested than the ring can host.
    """
    if n_chords < 0:
        raise TopologyError(f"chord count must be non-negative, got {n_chords}")
    limit = max_chords(n_sites)
    if n_chords > limit:
        raise TopologyError(
            f"a {n_sites}-site ring admits at most {limit} chords, asked for {n_chords}"
        )
    chords: List[Tuple[int, int]] = []
    if n_chords == 0:
        return chords
    for distance in range(n_sites // 2, 1, -1):
        for chord in _distance_class(n_sites, distance):
            chords.append(chord)
            if len(chords) == n_chords:
                return chords
    return chords

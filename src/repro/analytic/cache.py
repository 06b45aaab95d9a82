"""Content-addressed cross-layer density cache (DESIGN.md §10).

Density vectors and matrices are pure functions of their inputs —
``(family, n_sites, p, r)`` for the closed forms, ``(topology,
reliabilities)`` for exact enumeration — and the same inputs
recur constantly: the sweep engine bisects over reliabilities it has
already visited, the verification harness re-derives the same golden
densities per engine, and the optimizers rebuild identical models while
exploring quorums. This module memoizes those results behind one shared,
bounded LRU store so every layer benefits from every other layer's work.

Keys are *content-addressed*: closed forms hash ``(family, n, p, r)``
with the reliabilities quantized to :data:`QUANTIZE_DECIMALS` decimal
digits (callers that differ below that resolution — e.g. bisection
midpoints reconstructed from floats — share an entry); enumeration keys
hash the full topology content (links and the vote vector) plus the
quantized per-component reliability vectors.

The cache is process-wide, bounded (:data:`MAX_ENTRIES`, LRU eviction),
and is bypassed inside the :func:`disabled` context manager (used by the
kernel tests and the profiler so a cached result never masks a real
kernel run). Hits and misses are exported as the telemetry counters
``repro_density_cache_hits_total`` / ``repro_density_cache_misses_total``
labelled by layer, and :func:`stats` summarizes them.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.telemetry.recorder import current as _current_telemetry
from repro.topology.model import Topology

__all__ = [
    "CacheStats",
    "DensityCache",
    "MAX_ENTRIES",
    "QUANTIZE_DECIMALS",
    "closed_form_key",
    "disabled",
    "enabled",
    "enumeration_key",
    "fetch",
    "get_cache",
    "stats",
]

#: LRU capacity of the process-wide cache.
MAX_ENTRIES = 4_096

#: Reliabilities are rounded to this many decimal digits when keyed.
QUANTIZE_DECIMALS = 12

_FORCE_DISABLED = 0


def enabled() -> bool:
    """True outside every :func:`disabled` block."""
    return not _FORCE_DISABLED


@contextmanager
def disabled():
    """Force cache misses within the block (tests exercising real kernels)."""
    global _FORCE_DISABLED
    _FORCE_DISABLED += 1
    try:
        yield
    finally:
        _FORCE_DISABLED -= 1


def _quantized(value, count_hint: Optional[int] = None) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0 and count_hint is not None:
        arr = np.full(count_hint, float(arr))
    return np.round(arr, QUANTIZE_DECIMALS)


def closed_form_key(family: str, n_sites: int, p, r) -> Tuple:
    """Key for a section-4.2 closed form: ``(family, n, p, r)`` quantized."""
    pq = _quantized(p)
    rq = _quantized(r)
    return (
        "closed_form",
        str(family),
        int(n_sites),
        pq.tobytes(),
        rq.tobytes(),
    )


def enumeration_key(topology: Topology, site_rel, link_rel) -> Tuple:
    """Key for exact enumeration: full topology content + rels.

    The digest covers the link list and the vote vector (both part of the
    density) and the quantized per-component reliability vectors. A
    single site's row is a row of the cached matrix, so no key names one.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(topology.n_sites).tobytes())
    u, v = topology.link_endpoint_arrays()
    digest.update(np.ascontiguousarray(u).tobytes())
    digest.update(np.ascontiguousarray(v).tobytes())
    digest.update(np.asarray(topology.votes, dtype=np.int64).tobytes())
    digest.update(_quantized(site_rel, topology.n_sites).tobytes())
    digest.update(_quantized(link_rel, topology.n_links).tobytes())
    return ("enumeration", digest.hexdigest())


@dataclass
class CacheStats:
    """Aggregate hit/miss/entry counts, overall and by layer."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    by_layer: Dict[str, Tuple[int, int]] = field(default_factory=dict)


class DensityCache:
    """Bounded LRU mapping content keys to density arrays.

    Stored arrays are kept read-only; :meth:`get` hands out writable
    copies so a caller mutating its result cannot poison later hits.
    """

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    def _count(self, table: Dict[str, int], layer: str, metric: str) -> None:
        table[layer] = table.get(layer, 0) + 1
        tel = _current_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                f"repro_density_cache_{metric}_total",
                f"density-cache {metric} by layer",
            ).inc(layer=layer)

    def get(self, layer: str, key: Hashable) -> Optional[np.ndarray]:
        hit = self._store.get(key)
        if hit is None:
            self._count(self._misses, layer, "misses")
            return None
        self._store.move_to_end(key)
        self._count(self._hits, layer, "hits")
        return hit.copy()

    def put(self, layer: str, key: Hashable, value: np.ndarray) -> np.ndarray:
        stored = np.array(value, dtype=np.float64, copy=True)
        stored.setflags(write=False)
        self._store[key] = stored
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return value

    def fetch(
        self, layer: str, key: Hashable, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Return the cached value for ``key``, computing and storing on miss."""
        if not enabled():
            return compute()
        hit = self.get(layer, key)
        if hit is not None:
            return hit
        return self.put(layer, key, compute())

    def clear(self) -> None:
        self._store.clear()
        self._hits.clear()
        self._misses.clear()

    def stats(self) -> CacheStats:
        layers = sorted(set(self._hits) | set(self._misses))
        return CacheStats(
            hits=sum(self._hits.values()),
            misses=sum(self._misses.values()),
            entries=len(self._store),
            by_layer={
                layer: (self._hits.get(layer, 0), self._misses.get(layer, 0))
                for layer in layers
            },
        )


_CACHE = DensityCache()


def get_cache() -> DensityCache:
    """The process-wide density cache."""
    return _CACHE


def fetch(layer: str, key: Hashable, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """Module-level convenience for ``get_cache().fetch(...)``."""
    return _CACHE.fetch(layer, key, compute)


def stats() -> CacheStats:
    """Module-level convenience for ``get_cache().stats()``."""
    return _CACHE.stats()

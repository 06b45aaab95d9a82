"""Deterministic client request streams for the serving layer.

The whole stream is precomputed here as flat numpy arrays from seeded
substreams (:func:`repro.rng.stream_for`), giving every request a global
id; the service's sequencer takes it a chunk at a time in id order.

Sampling matches :class:`~repro.simulation.workload.AccessWorkload`
semantics: arrivals form a Poisson process at the workload's aggregate
rate (inter-arrival exponentials, cumulatively summed), each request is
a read with probability ``alpha``, and the submitting site is drawn from
``r_i`` or ``w_i`` depending on the kind.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.rng import stream_for
from repro.simulation.workload import AccessWorkload

__all__ = ["RequestStream", "RequestChunk"]

#: Substream indices under the run seed (kept distinct from every other
#: consumer of the same seed inside the service).
_STREAM_ARRIVALS = 101
_STREAM_KINDS = 102
_STREAM_SITES = 103


class RequestChunk:
    """A contiguous id range of the stream, as column views (no copies)."""

    __slots__ = ("start", "times", "sites", "is_read")

    def __init__(self, start: int, times: np.ndarray, sites: np.ndarray,
                 is_read: np.ndarray) -> None:
        self.start = start
        self.times = times
        self.sites = sites
        self.is_read = is_read

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterator[Tuple[int, float, int, bool]]:
        """Yield ``(request_id, time, site, is_read)`` in id order."""
        start = self.start
        for offset in range(len(self.times)):
            yield (
                start + offset,
                float(self.times[offset]),
                int(self.sites[offset]),
                bool(self.is_read[offset]),
            )


class RequestStream:
    """The full precomputed access stream for one serving run."""

    def __init__(self, workload: AccessWorkload, n_requests: int, seed: int,
                 chunk_size: int = 4096) -> None:
        if n_requests <= 0:
            raise SimulationError(
                f"need at least one request, got {n_requests}"
            )
        if chunk_size <= 0:
            raise SimulationError(
                f"chunk_size must be positive, got {chunk_size}"
            )
        self.workload = workload
        self.n_requests = int(n_requests)
        self.chunk_size = int(chunk_size)
        self.seed = int(seed)

        n = self.n_requests
        gaps = stream_for(seed, _STREAM_ARRIVALS).exponential(
            1.0 / workload.aggregate_rate, size=n
        )
        self.times = np.cumsum(gaps)
        self.is_read = stream_for(seed, _STREAM_KINDS).random(n) < workload.alpha
        site_rng = stream_for(seed, _STREAM_SITES)
        read_sites = site_rng.choice(
            workload.n_sites, size=n, p=workload.read_weights
        )
        write_sites = site_rng.choice(
            workload.n_sites, size=n, p=workload.write_weights
        )
        self.sites = np.where(self.is_read, read_sites, write_sites).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Arrival time of the last request."""
        return float(self.times[-1])

    @property
    def n_chunks(self) -> int:
        return -(-self.n_requests // self.chunk_size)

    def chunk(self, index: int) -> RequestChunk:
        """Chunk ``index`` of the stream (contiguous ids, view-backed)."""
        if not 0 <= index < self.n_chunks:
            raise SimulationError(
                f"chunk index {index} outside 0..{self.n_chunks - 1}"
            )
        lo = index * self.chunk_size
        hi = min(lo + self.chunk_size, self.n_requests)
        return RequestChunk(
            lo, self.times[lo:hi], self.sites[lo:hi], self.is_read[lo:hi]
        )

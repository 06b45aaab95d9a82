"""Access-request workloads.

Paper, section 5.2: each site submits access requests as a Poisson
process with mean inter-access time ``mu_t = 1``, each request being a
read with probability ``alpha``, and "both read and write requests are
submitted uniformly at random to every site". By Poisson superposition
the network-wide request stream is Poisson with rate
``sum_i rate_i``; by Poisson splitting, the number of requests in an
epoch, their submitting sites, and their read/write kinds can be sampled
jointly as Poisson + multinomial + binomial draws — exactly equivalent in
distribution to event-by-event generation, and what makes a million
accesses affordable in Python.

Beyond the paper's uniform setting, :class:`AccessWorkload` supports
skewed access patterns (zipf, hotspot, arbitrary weights) and distinct
read and write site distributions ``r_i != w_i``, which is what the
Figure-1 algorithm consumes in the general case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["AccessWorkload", "PhasedWorkload"]


def _normalize_weights(weights: Sequence[float] | np.ndarray, n_sites: int,
                       label: str) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (n_sites,):
        raise SimulationError(f"{label} must have shape ({n_sites},), got {arr.shape}")
    if (arr < 0).any():
        raise SimulationError(f"{label} must be non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise SimulationError(f"{label} must have positive total mass")
    return arr / total


@dataclass(frozen=True)
class AccessWorkload:
    """Read fraction plus per-site submission distributions.

    Attributes
    ----------
    alpha:
        Fraction of accesses that are reads (the paper's primary knob).
    read_weights, write_weights:
        The paper's ``r_i`` and ``w_i``: each a probability vector over
        sites. Uniform by default.
    rate_per_site:
        Poisson submission rate of each site (``1 / mu_t``); the paper
        uses ``mu_t = 1``. The aggregate network rate is
        ``n_sites * rate_per_site`` regardless of the weight vectors
        (weights redistribute, they do not rescale).
    """

    n_sites: int
    alpha: float
    read_weights: np.ndarray
    write_weights: np.ndarray
    rate_per_site: float = 1.0

    def __post_init__(self) -> None:
        if self.n_sites <= 0:
            raise SimulationError(f"need at least one site, got {self.n_sites}")
        if not 0.0 <= self.alpha <= 1.0:
            raise SimulationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.rate_per_site <= 0:
            raise SimulationError(
                f"rate_per_site must be positive, got {self.rate_per_site}"
            )
        object.__setattr__(
            self, "read_weights",
            _normalize_weights(self.read_weights, self.n_sites, "read_weights"),
        )
        object.__setattr__(
            self, "write_weights",
            _normalize_weights(self.write_weights, self.n_sites, "write_weights"),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n_sites: int, alpha: float, rate_per_site: float = 1.0) -> "AccessWorkload":
        """The paper's workload: uniform submission, read fraction ``alpha``."""
        w = np.full(n_sites, 1.0 / n_sites)
        return cls(n_sites, alpha, w, w.copy(), rate_per_site)

    @classmethod
    def zipf(cls, n_sites: int, alpha: float, exponent: float = 1.0,
             rate_per_site: float = 1.0) -> "AccessWorkload":
        """Zipf-skewed submissions: site ``i`` gets weight ``1/(i+1)^exponent``."""
        if exponent < 0:
            raise SimulationError(f"zipf exponent must be non-negative, got {exponent}")
        w = 1.0 / np.power(np.arange(1, n_sites + 1, dtype=np.float64), exponent)
        w /= w.sum()
        return cls(n_sites, alpha, w, w.copy(), rate_per_site)

    @classmethod
    def hotspot(cls, n_sites: int, alpha: float, hot_sites: Sequence[int],
                hot_fraction: float = 0.8, rate_per_site: float = 1.0) -> "AccessWorkload":
        """A fraction of traffic concentrates on a few hot sites."""
        if not 0.0 < hot_fraction < 1.0:
            raise SimulationError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
        hot = sorted(set(int(s) for s in hot_sites))
        if not hot:
            raise SimulationError("need at least one hot site")
        if hot[0] < 0 or hot[-1] >= n_sites:
            raise SimulationError("hot site outside network")
        if len(hot) >= n_sites:
            raise SimulationError("hot set must be a proper subset of the sites")
        w = np.full(n_sites, (1.0 - hot_fraction) / (n_sites - len(hot)))
        w[hot] = hot_fraction / len(hot)
        return cls(n_sites, alpha, w, w.copy(), rate_per_site)

    @classmethod
    def with_distinct_read_write(
        cls,
        alpha: float,
        read_weights: Sequence[float],
        write_weights: Sequence[float],
        rate_per_site: float = 1.0,
    ) -> "AccessWorkload":
        """General ``r_i != w_i`` workload (reads and writes from different sites)."""
        r = np.asarray(read_weights, dtype=np.float64)
        return cls(r.shape[0], alpha, r, np.asarray(write_weights, dtype=np.float64),
                   rate_per_site)

    # ------------------------------------------------------------------
    @property
    def aggregate_rate(self) -> float:
        """Network-wide Poisson request rate."""
        return self.n_sites * self.rate_per_site

    def with_alpha(self, alpha: float) -> "AccessWorkload":
        """Same distributions, different read fraction."""
        return AccessWorkload(
            self.n_sites, alpha, self.read_weights, self.write_weights, self.rate_per_site
        )

    def sample_epoch(
        self, duration: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the accesses of one epoch of length ``duration``.

        Returns ``(reads_per_site, writes_per_site)`` int64 arrays. The
        joint law matches event-by-event simulation: total count is
        Poisson(rate * duration), thinned into reads with probability
        ``alpha``, and each kind distributed over sites by its own weight
        vector.
        """
        if duration < 0:
            raise SimulationError(f"duration must be non-negative, got {duration}")
        total = int(rng.poisson(self.aggregate_rate * duration))
        if total == 0:
            zero = np.zeros(self.n_sites, dtype=np.int64)
            return zero, zero.copy()
        n_reads = int(rng.binomial(total, self.alpha))
        n_writes = total - n_reads
        # multinomial already draws int64; copy=False keeps the contract
        # without copying both arrays every epoch.
        reads = rng.multinomial(n_reads, self.read_weights).astype(np.int64, copy=False)
        writes = rng.multinomial(n_writes, self.write_weights).astype(np.int64, copy=False)
        return reads, writes

    def expected_epoch(self, duration: float) -> Tuple[np.ndarray, np.ndarray]:
        """Expected per-site read/write counts for one epoch (float arrays).

        The expected-value accounting mode uses these in place of sampled
        counts; see DESIGN.md on variance reduction.
        """
        if duration < 0:
            raise SimulationError(f"duration must be non-negative, got {duration}")
        volume = self.aggregate_rate * duration
        reads = volume * self.alpha * self.read_weights
        writes = volume * (1.0 - self.alpha) * self.write_weights
        return reads, writes

    def expected_epochs(self, durations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`expected_epoch` for a block of ``k`` epochs at once.

        Returns ``(k, n_sites)`` reads and writes whose row ``i`` is
        bitwise ``expected_epoch(durations[i])``: the same products in
        the same order, ``((rate * d) * alpha) * w_i``.
        """
        durations = np.asarray(durations, dtype=np.float64)
        if (durations < 0).any():
            raise SimulationError(
                f"durations must be non-negative, got min {durations.min()}"
            )
        volume = self.aggregate_rate * durations
        reads = (volume * self.alpha)[:, None] * self.read_weights
        writes = (volume * (1.0 - self.alpha))[:, None] * self.write_weights
        return reads, writes


class PhasedWorkload:
    """A piecewise-constant schedule of workloads (section 4.3 scenarios).

    The dynamic reassignment protocol exists to exploit *temporal*
    characteristics of the access stream — e.g. write-heavy business
    hours followed by read-heavy reporting. ``PhasedWorkload`` expresses
    that as a sequence of ``(start_time, AccessWorkload)`` phases; the
    engine asks for the phase in force at each epoch's start (epochs are
    short relative to any realistic phase length, so intra-epoch phase
    boundaries are not split).

    All phases must cover the same sites. The phase list must start at
    time 0 and be strictly increasing in start time.
    """

    def __init__(self, phases: Sequence[Tuple[float, AccessWorkload]]) -> None:
        if not phases:
            raise SimulationError("need at least one workload phase")
        starts = [float(t) for t, _ in phases]
        if starts[0] != 0.0:
            raise SimulationError(f"first phase must start at time 0, got {starts[0]}")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise SimulationError("phase start times must be strictly increasing")
        sites = {w.n_sites for _, w in phases}
        if len(sites) != 1:
            raise SimulationError(f"phases cover different site counts: {sorted(sites)}")
        rates = {w.aggregate_rate for _, w in phases}
        if len(rates) != 1:
            # Permitting rate changes would make "accesses per batch"
            # ambiguous; keep the rate fixed and vary alpha/weights.
            raise SimulationError("all phases must share the aggregate access rate")
        self._starts = np.asarray(starts)
        self._workloads = [w for _, w in phases]

    @property
    def n_sites(self) -> int:
        return self._workloads[0].n_sites

    @property
    def aggregate_rate(self) -> float:
        return self._workloads[0].aggregate_rate

    @property
    def alpha(self) -> float:
        """Alpha of the first phase (reporting convenience)."""
        return self._workloads[0].alpha

    @property
    def read_weights(self) -> np.ndarray:
        return self._workloads[0].read_weights

    @property
    def write_weights(self) -> np.ndarray:
        return self._workloads[0].write_weights

    def at(self, time: float) -> AccessWorkload:
        """The workload in force at ``time``."""
        if time < 0:
            raise SimulationError(f"time must be non-negative, got {time}")
        index = int(np.searchsorted(self._starts, time, side="right")) - 1
        return self._workloads[index]

    def with_alpha(self, alpha: float) -> "PhasedWorkload":
        """Replace alpha in every phase (keeps the schedule)."""
        return PhasedWorkload(
            [(float(t), w.with_alpha(alpha)) for t, w in zip(self._starts, self._workloads)]
        )

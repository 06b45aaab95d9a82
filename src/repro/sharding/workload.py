"""Item-access workloads: who touches which item from which site.

The single-item :class:`~repro.simulation.workload.AccessWorkload` models
*per-site* skew — where accesses are submitted. A sharded database also
needs *per-item* skew: a few hot catalog entries absorb most of the
traffic while the long tail idles. :class:`ItemWorkload` composes the
two: a probability vector over items (uniform, Zipf, or hotspot —
mirroring the per-site constructors), a per-item read fraction
``alpha_i``, and the per-site submission weights of the single-item API.

Each access picks its ``(item, site)`` independently from its kind's
``item weights (x) site weights``, so sampling is exact Poisson thinning
in two stages instead of one multinomial over the ``(item, site)`` grid:

1. ``total ~ Poisson(rate * duration)``;
2. ``n_reads ~ Binomial(total, mean_alpha)``, ``mean_alpha = sum_i w_i alpha_i``;
3. one ``Multinomial`` over the sites for the reads, one for the writes;
4. each read's item from the CDF of ``w_i alpha_i``, each write's from
   that of ``w_i (1 - alpha_i)``, one uniform per access on ``item_rng``.

Steps 1–3 are ``AccessWorkload.sample_epoch``'s draws on the same stream,
so per-site traffic is bitwise the single-item workload's for **any**
number of items (and an N=1 run is bitwise the single-item engine). An
epoch costs ``O(n_sites + accesses)``; nothing ``n_items x n_sites`` is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError

__all__ = ["ItemWorkload"]

#: One kind of access in one epoch: ascending flat cells
#: ``item * n_sites + site`` and the positive int64 count on each.
Accesses = Tuple[np.ndarray, np.ndarray]


def _normalize_weights(
    weights: Union[np.ndarray, Sequence[float]], count: int, label: str
) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (count,):
        raise SimulationError(
            f"{label} must have shape ({count},), got {arr.shape}"
        )
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise SimulationError(f"{label} must be finite and non-negative")
    total = arr.sum()
    if total <= 0:
        raise SimulationError(f"{label} must have positive total mass")
    return arr / total


def _alpha_vector(
    alpha: Union[float, np.ndarray, Sequence[float]], n_items: int
) -> np.ndarray:
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n_items, float(arr))
    if arr.shape != (n_items,):
        raise SimulationError(
            f"alphas must be scalar or shape ({n_items},), got {arr.shape}"
        )
    outside = ~((arr >= 0.0) & (arr <= 1.0))  # NaN compares false
    if outside.any():
        raise SimulationError(
            f"every item alpha must lie in [0, 1], got {arr[outside][0]}")
    return arr


@dataclass(frozen=True)
class ItemWorkload:
    """Joint (item, site) access distribution for a sharded database.

    ``item_weights`` is the marginal over items, ``read_site_weights`` /
    ``write_site_weights`` the (shared) per-site submission skew, and
    ``alphas`` the per-item read fraction. ``rate_per_site`` scales the
    aggregate Poisson rate exactly like the single-item workload.
    """

    n_items: int
    n_sites: int
    item_weights: np.ndarray
    alphas: np.ndarray
    read_site_weights: np.ndarray
    write_site_weights: np.ndarray
    rate_per_site: float = 1.0

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise SimulationError(
                f"need at least one item, got n_items={self.n_items}"
            )
        if self.n_sites < 1:
            raise SimulationError(
                f"need at least one site, got n_sites={self.n_sites}"
            )
        if self.rate_per_site <= 0:
            raise SimulationError("rate_per_site must be positive")
        object.__setattr__(
            self, "item_weights",
            _normalize_weights(self.item_weights, self.n_items, "item_weights"),
        )
        object.__setattr__(
            self, "alphas", _alpha_vector(self.alphas, self.n_items)
        )
        object.__setattr__(
            self, "read_site_weights",
            _normalize_weights(
                self.read_site_weights, self.n_sites, "read_site_weights"
            ),
        )
        object.__setattr__(
            self, "write_site_weights",
            _normalize_weights(
                self.write_site_weights, self.n_sites, "write_site_weights"
            ),
        )

    # ------------------------------------------------------------------
    # Constructors (mirroring AccessWorkload's per-site skew API)
    # ------------------------------------------------------------------
    @classmethod
    def _evenly_submitted(cls, n_items, n_sites, item_weights, alpha, rate_per_site):
        """Every site submitting equally: 1/n before normalization, matching
        ``AccessWorkload.uniform`` bit for bit (the N=1 parity contract)."""
        sites = np.full(max(n_sites, 1), 1.0 / max(n_sites, 1))
        return cls(
            n_items=n_items, n_sites=n_sites, item_weights=item_weights,
            alphas=np.asarray(alpha, dtype=np.float64),
            read_site_weights=sites, write_site_weights=sites,
            rate_per_site=rate_per_site,
        )

    @classmethod
    def uniform(
        cls,
        n_items: int,
        n_sites: int,
        alpha: Union[float, Sequence[float]],
        rate_per_site: float = 1.0,
    ) -> "ItemWorkload":
        """Every item equally popular, every site submitting equally."""
        return cls._evenly_submitted(
            n_items, n_sites, np.full(max(n_items, 1), 1.0), alpha, rate_per_site
        )

    @classmethod
    def zipf(
        cls,
        n_items: int,
        n_sites: int,
        alpha: Union[float, Sequence[float]],
        exponent: float = 1.0,
        rate_per_site: float = 1.0,
    ) -> "ItemWorkload":
        """Item ``i`` weighted ``1 / (i + 1) ** exponent`` (hot head at 0)."""
        if exponent < 0:
            raise SimulationError(
                f"zipf exponent must be non-negative, got {exponent}"
            )
        if n_items < 1:
            raise SimulationError(
                f"need at least one item, got n_items={n_items}"
            )
        ranks = np.arange(1, n_items + 1, dtype=np.float64)
        return cls._evenly_submitted(
            n_items, n_sites, ranks ** -float(exponent), alpha, rate_per_site
        )

    @classmethod
    def hotspot(
        cls,
        n_items: int,
        n_sites: int,
        alpha: Union[float, Sequence[float]],
        hot_items: Sequence[int],
        hot_fraction: float = 0.8,
        rate_per_site: float = 1.0,
    ) -> "ItemWorkload":
        """``hot_fraction`` of traffic lands on ``hot_items``, rest uniform."""
        if not 0.0 < hot_fraction < 1.0:
            raise SimulationError(
                f"hot_fraction must lie in (0, 1), got {hot_fraction}"
            )
        hot = sorted(set(int(i) for i in hot_items))
        if not hot:
            raise SimulationError("hotspot workload needs at least one hot item")
        if hot[0] < 0 or hot[-1] >= n_items:
            raise SimulationError(
                f"hot items {hot} outside the 0..{n_items - 1} item range"
            )
        cold = n_items - len(hot)
        if cold == 0:
            raise SimulationError("hotspot workload needs at least one cold item")
        weights = np.full(n_items, (1.0 - hot_fraction) / cold)
        weights[hot] = hot_fraction / len(hot)
        return cls._evenly_submitted(n_items, n_sites, weights, alpha, rate_per_site)

    # ------------------------------------------------------------------
    @property
    def aggregate_rate(self) -> float:
        """Total access rate across all sites (items share the budget)."""
        return self.n_sites * self.rate_per_site

    @cached_property
    def mean_alpha(self) -> float:
        """Traffic-weighted read fraction (the Poisson-thinning split);
        exactly 1.0 for a read-only workload, never above 1 by round-off."""
        if (self.alphas == 1.0).all():
            return 1.0
        return min(float((self.item_weights * self.alphas).sum()), 1.0)

    @cached_property
    def item_cdfs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only read and write item CDFs, ending at exactly 1.0: item
        ``i`` owns ``[cdf[i-1], cdf[i])``, empty for a zero-weight item. A
        kind with no mass is never sampled; its CDF is the item weights'."""
        def cdf(mass: np.ndarray) -> np.ndarray:
            out = np.cumsum(mass if mass.any() else self.item_weights)
            out /= out[-1]
            out.flags.writeable = False
            return out

        return (cdf(self.item_weights * self.alphas),
                cdf(self.item_weights * (1.0 - self.alphas)))

    def sample_epoch(self, duration: float, rng: np.random.Generator,
                     item_rng: np.random.Generator) -> Tuple[Accesses, Accesses]:
        """One epoch's ``(reads, writes)``: sites from ``rng``, items from
        ``item_rng`` (module docstring)."""
        if duration < 0:
            raise SimulationError(f"epoch duration must be >= 0, got {duration}")
        total = int(rng.poisson(self.aggregate_rate * duration))
        if total == 0:
            # Same short-circuit as AccessWorkload: no thinning draws are
            # consumed for an empty epoch.
            empty = np.zeros(0, dtype=np.int64)
            return (empty, empty), (empty, empty)
        n_reads = int(rng.binomial(total, self.mean_alpha))
        read_sites = rng.multinomial(n_reads, self.read_site_weights)
        write_sites = rng.multinomial(total - n_reads, self.write_site_weights)
        read_cdf, write_cdf = self.item_cdfs
        return (self._place(read_sites, read_cdf, item_rng),
                self._place(write_sites, write_cdf, item_rng))

    def _place(self, site_counts: np.ndarray, cdf: np.ndarray,
               item_rng: np.random.Generator) -> Accesses:
        """Give each of ``site_counts``' accesses an item drawn from ``cdf``."""
        sites = np.repeat(np.arange(self.n_sites), site_counts)
        items = cdf.searchsorted(item_rng.random(sites.size), side="right")
        return np.unique(items * self.n_sites + sites, return_counts=True)

"""On-line estimation of the component-size densities (paper, section 4.2).

Exact computation of ``f_i(v)`` is #P-complete in general, but each site
can *observe* its component's vote total whenever it communicates —
"rather than performing broadcasts solely to acquire this vote total,
site i can record the totals received while performing other functions
required by the consistency control algorithm". If past history is
indicative of future behaviour, the empirical distribution of those
observations converges to ``f_i``.

:class:`OnlineDensityEstimator` accumulates weighted observations per
``(site, vote total)`` cell. Weights support both accounting styles used
by the simulator: per-access counts (the paper's scheme) and
time-integration (each network epoch contributes its duration — the
variance-reduced estimator described in DESIGN.md). An optional
exponential *forgetting factor* discounts old observations so the
estimate tracks temporal shifts in reliability or topology, which is what
lets the dynamic reassignment protocol adapt (section 4.3).

Note on semantics: densities estimated this way approximate the paper's
``f_i`` including the "down site = component of zero votes" convention
only when the caller also records observations for down sites (vote
total 0). The simulator does; a deployment would instead estimate the
conditional density ``A'`` and rely on the paper's footnote 4 argument
(``p A' = A``) that the optimal quorum is unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analytic.density import normalize_density
from repro.errors import DensityError

__all__ = ["OnlineDensityEstimator"]


class OnlineDensityEstimator:
    """Per-site histogram of observed component vote totals."""

    def __init__(
        self,
        n_sites: int,
        total_votes: int,
        forgetting_factor: float = 1.0,
    ) -> None:
        if n_sites <= 0:
            raise DensityError(f"need at least one site, got {n_sites}")
        if total_votes <= 0:
            raise DensityError(f"total votes must be positive, got {total_votes}")
        if not 0.0 < forgetting_factor <= 1.0:
            raise DensityError(
                f"forgetting factor must be in (0, 1], got {forgetting_factor}"
            )
        self.n_sites = int(n_sites)
        self.total_votes = int(total_votes)
        self.forgetting_factor = float(forgetting_factor)
        self._weights = np.zeros((self.n_sites, self.total_votes + 1), dtype=np.float64)
        self._site_ids = np.arange(self.n_sites)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, site: int, component_votes: int, weight: float = 1.0) -> None:
        """Record one observation at one site."""
        if not 0 <= site < self.n_sites:
            raise DensityError(f"unknown site {site}")
        if not 0 <= component_votes <= self.total_votes:
            raise DensityError(
                f"component votes must be in 0..{self.total_votes}, got {component_votes}"
            )
        if weight < 0:
            raise DensityError(f"weight must be non-negative, got {weight}")
        self._decay()
        self._weights[site, component_votes] += weight

    def observe_all(self, vote_totals: np.ndarray, weight: float = 1.0) -> None:
        """Record one observation per site (a full network snapshot).

        ``vote_totals`` is the per-site component vote vector the
        connectivity tracker produces; ``weight`` is 1 for a count-style
        observation or the epoch duration for time-weighted estimation.
        """
        totals = np.asarray(vote_totals, dtype=np.int64)
        if totals.shape != (self.n_sites,):
            raise DensityError(
                f"vote_totals must have shape ({self.n_sites},), got {totals.shape}"
            )
        if (totals < 0).any() or (totals > self.total_votes).any():
            raise DensityError(f"vote totals must be in 0..{self.total_votes}")
        if weight < 0:
            raise DensityError(f"weight must be non-negative, got {weight}")
        self._decay()
        self._weights[self._site_ids, totals] += weight

    def observe_counts(self, vote_totals: np.ndarray, counts: np.ndarray) -> None:
        """Record per-site observation weights in one call.

        This is the access-count accounting mode: ``counts[i]`` is how
        many accesses site ``i`` processed during an epoch in which its
        component held ``vote_totals[i]`` votes. Cheaper than calling
        :meth:`observe` per access and identical in effect.
        """
        totals = np.asarray(vote_totals, dtype=np.int64)
        weights = np.asarray(counts, dtype=np.float64)
        if totals.shape != (self.n_sites,) or weights.shape != (self.n_sites,):
            raise DensityError(
                f"vote_totals and counts must both have shape ({self.n_sites},), "
                f"got {totals.shape} and {weights.shape}"
            )
        if (totals < 0).any() or (totals > self.total_votes).any():
            raise DensityError(f"vote totals must be in 0..{self.total_votes}")
        if (weights < 0).any():
            raise DensityError("counts must be non-negative")
        self._decay()
        np.add.at(self._weights, (self._site_ids, totals), weights)

    def observe_epochs(self, vote_totals: np.ndarray, weights: np.ndarray) -> None:
        """Record a block of consecutive snapshots, oldest first.

        ``vote_totals`` is ``(k, n_sites)``, one row per epoch.
        ``weights`` is ``(k,)`` — one weight per epoch, as ``k`` calls
        to :meth:`observe_all` — or ``(k, n_sites)`` — per-site weights,
        as ``k`` calls to :meth:`observe_counts`. The block is validated
        once and rejected whole; every cell then receives its additions
        in epoch order, so the result is bitwise that of the row-by-row
        calls.
        """
        totals = np.asarray(vote_totals, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if totals.ndim != 2 or totals.shape[1] != self.n_sites:
            raise DensityError(
                f"vote_totals must have shape (k, {self.n_sites}), got {totals.shape}"
            )
        if weights.shape != totals.shape and weights.shape != totals.shape[:1]:
            raise DensityError(
                f"weights must have shape ({totals.shape[0]},) or {totals.shape}, "
                f"got {weights.shape}"
            )
        if totals.shape[0] == 0:
            return
        if totals.min() < 0 or totals.max() > self.total_votes:
            raise DensityError(f"vote totals must be in 0..{self.total_votes}")
        if weights.min() < 0:
            raise DensityError("weights must be non-negative")
        if self.forgetting_factor < 1.0:
            # Decay separates consecutive rows, so they cannot be fused.
            row = self.observe_all if weights.ndim == 1 else self.observe_counts
            for row_totals, row_weights in zip(totals, weights):
                row(row_totals, row_weights)
            return
        if weights.ndim == 1:
            weights = np.repeat(weights, self.n_sites)
        # Epoch-major cells + unbuffered add.at = per-cell epoch order.
        cells = self._site_ids * (self.total_votes + 1) + totals
        np.add.at(self._weights.reshape(-1), cells.ravel(), weights.ravel())

    def _decay(self) -> None:
        if self.forgetting_factor < 1.0:
            self._weights *= self.forgetting_factor

    # ------------------------------------------------------------------
    # Reading out
    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        """Total accumulated (post-decay) observation weight."""
        return float(self._weights.sum())

    def site_weight(self, site: int) -> float:
        """Accumulated weight at one site."""
        return float(self._weights[site].sum())

    def density(self, site: int) -> np.ndarray:
        """Estimated ``f_site(v)``, normalized. Raises if nothing observed."""
        if not 0 <= site < self.n_sites:
            raise DensityError(f"unknown site {site}")
        return normalize_density(self._weights[site])

    def density_matrix(self) -> np.ndarray:
        """Estimated densities for all sites, shape ``(n_sites, T+1)``.

        Every site must have at least one observation; the simulator's
        snapshot-based recording guarantees this after the first epoch.
        """
        row_mass = self._weights.sum(axis=1)
        if (row_mass <= 0).any():
            missing = int(np.nonzero(row_mass <= 0)[0][0])
            raise DensityError(f"site {missing} has no observations yet")
        return self._weights / row_mass[:, None]

    def merge(self, other: "OnlineDensityEstimator") -> None:
        """Fold another estimator's observations into this one.

        Supports distributed estimation: each site keeps a local
        estimator and periodically exchanges summaries.
        """
        if (other.n_sites, other.total_votes) != (self.n_sites, self.total_votes):
            raise DensityError(
                "cannot merge estimators with different shapes: "
                f"({self.n_sites}, {self.total_votes}) vs ({other.n_sites}, {other.total_votes})"
            )
        self._weights += other._weights

    def reset(self) -> None:
        """Drop all accumulated observations."""
        self._weights[:] = 0.0

    def __repr__(self) -> str:
        return (
            f"OnlineDensityEstimator(n_sites={self.n_sites}, T={self.total_votes}, "
            f"weight={self.total_weight:.3g})"
        )

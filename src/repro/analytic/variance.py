"""Variance-reduced Monte-Carlo density estimation: stratified sampling.

Plain Monte-Carlo (:mod:`repro.analytic.montecarlo`) spends almost its
whole sample budget re-observing the all-up network state once component
reliability is high (p >= 0.99). Stratifying on the number of failures
recovers that budget.

The total failure count ``K`` over the fallible components follows a
Poisson-Binomial law whose probabilities ``W_k = P(K = k)`` are computed
*exactly* by the :func:`failure_count_weights` convolution, so the
density matrix decomposes as ``f = sum_k W_k f^(k)`` with each ``f^(k)``
estimated only from states conditioned on exactly ``k`` failures:

- stratum 0 (all fallible components up) is a *single* network state —
  evaluated deterministically once, contributing exactly ``W_0 f^(0)``
  with zero variance. At p = 0.999 this removes ~97% of the mass from
  the sampling problem.
- within stratum ``k`` the failure pattern is drawn from the exact
  conditional law ``P(x | K = k)`` by sequential conditional Bernoulli
  sampling against a suffix DP table (handles fully heterogeneous
  per-component reliabilities, e.g. the bus hub).
- the sample budget is split across strata proportionally to ``W_k``;
  strata outside the smallest set covering ``1 - TAIL_EPSILON`` of the
  mass, or apportioned no sample, are dropped and contribute exactly
  zero, with the retained mass renormalized.

The estimator turns a block of masks into counts through plain
Monte-Carlo's kernel (DESIGN.md §10,
:func:`~repro.connectivity.components.batched_vote_histogram`) and derives
every random draw from the caller's seed alone: exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analytic.density import Reliability, reliability_vector
from repro.analytic.montecarlo import _block_counts, _recorder
from repro.errors import DensityError, SimulationError
from repro.rng import RandomState, as_generator
from repro.topology.model import Topology

__all__ = [
    "failure_count_weights",
    "StratificationPlan",
    "stratified_density_matrix",
]

#: Probability mass the retained strata may leave out.
TAIL_EPSILON = 1e-9


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Components:
    """Fallible/deterministic split of the component vector (sites+links)."""

    n_sites: int
    #: Failure probabilities of the fallible components, sites first.
    q: np.ndarray
    #: Indices (into the concatenated site+link vector) of fallible comps.
    fallible: np.ndarray
    #: Base up-mask with deterministic components resolved (p in {0, 1}).
    base: np.ndarray


def _split_components(topology: Topology, p: Reliability,
                      r: Reliability) -> _Components:
    site_rel = reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = reliability_vector(r, topology.n_links, "link reliability")
    rel = np.concatenate([site_rel, link_rel])
    fallible = np.nonzero((rel > 0.0) & (rel < 1.0))[0]
    return _Components(
        n_sites=topology.n_sites,
        q=1.0 - rel[fallible],
        fallible=fallible,
        base=rel >= 1.0,
    )


def _masks_from_failures(comps: _Components,
                         failures: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand fallible-component failure indicators to full up-masks."""
    full = np.broadcast_to(
        comps.base, (failures.shape[0], comps.base.shape[0])).copy()
    full[:, comps.fallible] = ~failures
    return full[:, : comps.n_sites], full[:, comps.n_sites:]


# ----------------------------------------------------------------------
# Exact failure-count distribution (Poisson-Binomial convolution)
# ----------------------------------------------------------------------

def failure_count_weights(failure_probs: np.ndarray) -> np.ndarray:
    """Exact pmf of the total failure count over independent components.

    ``failure_probs[i]`` is component i's failure probability; the
    result has length ``m + 1`` with entry ``k`` equal to ``P(K = k)``
    (the Poisson-Binomial law, computed by the standard O(m^2)
    convolution — exact up to float round-off, sums to 1).
    """
    q = np.asarray(failure_probs, dtype=np.float64)
    if q.ndim != 1:
        raise DensityError(f"failure probs must be 1-D, got shape {q.shape}")
    if ((q < 0.0) | (q > 1.0)).any():
        raise DensityError("failure probabilities must be in [0, 1]")
    weights = np.zeros(q.shape[0] + 1, dtype=np.float64)
    weights[0] = 1.0
    for qi in q:
        weights[1:] = weights[1:] * (1.0 - qi) + weights[:-1] * qi
        weights[0] *= 1.0 - qi
    return weights


def _conditional_failure_table(q: np.ndarray, k_max: int) -> np.ndarray:
    """``cond[i, t] = P(component i fails | t failures left among i..m-1)``.

    With ``W[i, t] = P(exactly t failures among components i..m-1)`` (a
    suffix convolution) the exact conditional law is
    ``q_i W[i+1, t-1] / W[i, t]``. The forced moves hold regardless of
    round-off: no failures left -> up (column 0's numerator is 0.0); as
    many left as components remain -> down (written in as 1.0).
    """
    m = q.shape[0]
    W = np.zeros((m + 1, k_max + 1), dtype=np.float64)
    W[m, 0] = 1.0
    for i in range(m - 1, -1, -1):
        W[i, 0] = W[i + 1, 0] * (1.0 - q[i])
        W[i, 1:] = W[i + 1, 1:] * (1.0 - q[i]) + W[i + 1, :-1] * q[i]
    num = np.zeros((m, k_max + 1), dtype=np.float64)
    num[:, 1:] = q[:, None] * W[1:, :-1]
    denom = W[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    left = np.arange(k_max + 1)
    cond[left >= (m - np.arange(m))[:, None]] = 1.0
    return cond


def _conditional_failure_masks(cond: np.ndarray, k: int, count: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` failure patterns with exactly ``k`` failures.

    Sequential conditional Bernoulli sampling from the exact law
    ``P(x | K = k)`` — valid for fully heterogeneous ``q`` — against the
    run's :func:`_conditional_failure_table`. Component ``i``'s uniforms
    are drawn in its own step, ``rng.random(count)``: the stream of one
    ``(m, count)`` block read row by row, without the block.
    """
    m = cond.shape[0]
    failures = np.empty((m, count), dtype=bool)
    remaining = np.full(count, k, dtype=np.int64)
    for i in range(m):
        np.less(rng.random(count), cond[i].take(remaining), out=failures[i])
        remaining -= failures[i]
    return failures.T


# ----------------------------------------------------------------------
# Stratified estimator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StratificationPlan:
    """How one stratified run split its budget (reported for tests/benches).

    ``weights`` is the full exact Poisson-Binomial pmf (sums to 1);
    ``allocations`` maps each *sampled* stratum to its sample count;
    ``exact_strata`` lists strata evaluated deterministically (today:
    stratum 0 when it has positive weight); ``retained_mass`` is the
    total weight of every stratum that contributes (exact + sampled) —
    dropped strata contribute exactly zero and ``1 - retained_mass <=
    TAIL_EPSILON`` plus the mass of strata apportioned no sample.
    """

    weights: np.ndarray
    allocations: Dict[int, int]
    exact_strata: Tuple[int, ...]
    retained_mass: float

    @property
    def sampled_states(self) -> int:
        return int(sum(self.allocations.values()))


def _retained_strata(weights: np.ndarray) -> np.ndarray:
    """Smallest weight-ordered stratum set covering ``1 - TAIL_EPSILON``."""
    order = np.argsort(weights)[::-1]
    cumulative = np.cumsum(weights[order])
    keep = int(np.searchsorted(cumulative, 1.0 - TAIL_EPSILON)) + 1
    retained = np.sort(order[:keep])
    return retained[weights[retained] > 0.0]


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Deterministic integer apportionment of ``total`` by ``shares``."""
    raw = shares / shares.sum() * total
    counts = np.floor(raw).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        # Stable tie-break: largest fractional part first, then index.
        order = np.lexsort((np.arange(shares.shape[0]), -(raw - counts)))
        counts[order[:remainder]] += 1
    return counts


def stratified_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
    n_samples: int = 10_000,
    seed: RandomState = None,
    return_plan: bool = False,
):
    """Estimate the density matrix by stratifying on the failure count.

    Same contract as
    :func:`~repro.analytic.montecarlo.montecarlo_density_matrix` — an
    ``(n_sites, T+1)`` matrix whose rows are proper densities, exactly
    reproducible from ``seed`` — but with the all-up stratum evaluated
    deterministically and the sample budget, apportioned to the strata
    by weight, spent only on states that actually contain failures.
    """
    if n_samples <= 0:
        raise SimulationError(f"n_samples must be positive, got {n_samples}")
    comps = _split_components(topology, p, r)
    recorder = _recorder()
    with recorder.phase("mc.strat.plan"):
        weights = failure_count_weights(comps.q)
        retained = _retained_strata(weights)
        sampled = retained[retained > 0]
        budget = n_samples - (1 if 0 in retained else 0)
        k_max = int(sampled.max()) if sampled.size else 0
        cond = _conditional_failure_table(comps.q, k_max) if sampled.size else None

    rng = as_generator(seed)
    n, T = topology.n_sites, topology.total_votes
    matrix = np.zeros((n, T + 1), dtype=np.float64)
    allocations: Dict[int, int] = {}
    exact: Tuple[int, ...] = ()

    if 0 in retained:
        # The all-up stratum is one known state: exact, zero variance.
        site_masks, link_masks = _masks_from_failures(
            comps, np.zeros((1, comps.q.shape[0]), dtype=bool))
        matrix += weights[0] * _block_counts(topology, site_masks, link_masks)
        exact = (0,)

    if sampled.size and budget > 0:
        counts = _largest_remainder(weights[sampled], budget)
        for k, count in zip(sampled.tolist(), counts.tolist()):
            if count <= 0:
                continue
            with recorder.phase("mc.strat.sample"):
                failures = _conditional_failure_masks(cond, k, count, rng)
                site_masks, link_masks = _masks_from_failures(comps, failures)
            stratum = _block_counts(topology, site_masks, link_masks)
            matrix += weights[k] * stratum / count
            allocations[k] = count

    retained_mass = float(weights[list(exact)].sum()
                          + weights[list(allocations)].sum())
    if retained_mass <= 0.0:
        raise DensityError("no stratum retained; check reliabilities")
    # Conditioning on the retained strata keeps rows proper densities;
    # the dropped tail (<= TAIL_EPSILON plus unapportioned mass)
    # contributes exactly zero.
    matrix /= retained_mass
    if return_plan:
        plan = StratificationPlan(
            weights=weights,
            allocations=allocations,
            exact_strata=exact,
            retained_mass=retained_mass,
        )
        return matrix, plan
    return matrix

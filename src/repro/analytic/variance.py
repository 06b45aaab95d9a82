"""Variance-reduced Monte-Carlo density estimation (stratified + IS).

Plain Monte-Carlo (:mod:`repro.analytic.montecarlo`) spends almost its
whole sample budget re-observing the all-up network state once component
reliability is high — exactly the regime the paper's figures sweep
(p = 0.96) and the serving layer cares about (p >= 0.99). Two standard
estimators recover that budget:

**Stratified sampling over the number-of-failures stratum.** The total
failure count ``K`` over the fallible components follows a
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
- the sample budget is split across strata proportionally to ``W_k``
  (default) or by Neyman allocation from a pilot pass; strata whose
  weight or allocation is negligible are dropped and contribute exactly
  zero, with the retained mass renormalized (bias bounded by
  ``tail_epsilon``).

**Importance sampling for rare-failure regimes.** Failure probabilities
are inflated to a defensive mixture proposal
``g = lam * p + (1 - lam) * p'`` (``p'`` chosen so the expected failure
count is ``target_failures``), and each sample carries the likelihood
ratio ``w(x) = p(x) / g(x) = 1 / (lam + (1 - lam) * p'(x)/p(x))`` —
computable in closed form per sample because nominal and proposal are
both product-Bernoulli laws:

    p'(x)/p(x) = prod_i (q'_i/q_i)^{x_i} ((1-q'_i)/(1-q_i))^{1-x_i}

The mixture bounds every weight by ``1/lam`` (no weight blow-up when the
proposal is mis-tuned). The returned matrix is the *self-normalized*
estimator ``f(v) = sum_s w_s 1{v_s = v} / sum_s w_s`` (consistent; bias
O(1/n)); the effective sample size ``n_eff = (sum w)^2 / sum w^2`` is
reported so downstream confidence intervals stay honest.

Both estimators turn a block of masks into counts through plain
Monte-Carlo's kernel (DESIGN.md §10,
:func:`~repro.connectivity.components.batched_vote_histogram`) and derive
every random draw from the caller's seed alone: exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analytic.montecarlo import (
    Reliability,
    _block_counts,
    _profiler,
    _reliability_vector,
)
from repro.errors import DensityError, SimulationError
from repro.rng import RandomState, as_generator
from repro.topology.model import Topology

__all__ = [
    "failure_count_weights",
    "StratificationPlan",
    "stratified_density_matrix",
    "ImportanceStats",
    "importance_density_matrix",
]


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
    site_rel = _reliability_vector(p, topology.n_sites, "site reliability")
    link_rel = _reliability_vector(r, topology.n_links, "link reliability")
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
    run's :func:`_conditional_failure_table`. The uniforms are one
    ``(m, count)`` block, row ``i`` for component ``i``: the same stream
    as ``m`` successive ``rng.random(count)`` draws.
    """
    m = cond.shape[0]
    uniforms = rng.random((m, count))
    failures = np.empty((m, count), dtype=bool)
    remaining = np.full(count, k, dtype=np.int64)
    for i in range(m):
        np.less(uniforms[i], cond[i].take(remaining), out=failures[i])
        remaining -= failures[i]
    return failures.T


# ----------------------------------------------------------------------
# Stratified estimator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StratificationPlan:
    """How one stratified run splits its budget (reported for tests/benches).

    ``weights`` is the full exact Poisson-Binomial pmf (sums to 1);
    ``allocations`` maps each *sampled* stratum to its sample count;
    ``exact_strata`` lists strata evaluated deterministically (today:
    stratum 0 when it has positive weight); ``retained_mass`` is the
    total weight of every stratum that contributes (exact + sampled) —
    dropped strata contribute exactly zero and ``1 - retained_mass <=
    tail_epsilon`` plus any allocation-starved mass.
    """

    weights: np.ndarray
    allocations: Dict[int, int]
    exact_strata: Tuple[int, ...]
    retained_mass: float
    allocation: str

    @property
    def sampled_states(self) -> int:
        return int(sum(self.allocations.values()))


def _retained_strata(weights: np.ndarray, tail_epsilon: float) -> np.ndarray:
    """Smallest weight-ordered stratum set covering ``1 - tail_epsilon``."""
    order = np.argsort(weights)[::-1]
    cumulative = np.cumsum(weights[order])
    keep = int(np.searchsorted(cumulative, 1.0 - tail_epsilon)) + 1
    retained = np.sort(order[:keep])
    return retained[weights[retained] > 0.0]


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Deterministic integer apportionment of ``total`` by ``shares``."""
    if shares.sum() <= 0.0:
        return np.zeros_like(shares, dtype=np.int64)
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
    allocation: str = "proportional",
    tail_epsilon: float = 1e-9,
    pilot_fraction: float = 0.25,
    return_plan: bool = False,
):
    """Estimate the density matrix by stratifying on the failure count.

    Same contract as
    :func:`~repro.analytic.montecarlo.montecarlo_density_matrix` — an
    ``(n_sites, T+1)`` matrix whose rows are proper densities, exactly
    reproducible from ``seed`` — but with the all-up stratum evaluated
    deterministically and the sample budget spent only on states that
    actually contain failures. ``allocation`` is ``"proportional"``
    (budget ~ stratum weight) or ``"neyman"`` (a pilot pass of
    ``pilot_fraction`` of the budget estimates per-stratum spread first;
    pilot samples are pooled into the final estimate).
    """
    if n_samples <= 0:
        raise SimulationError(f"n_samples must be positive, got {n_samples}")
    if allocation not in ("proportional", "neyman"):
        raise SimulationError(
            f"allocation must be 'proportional' or 'neyman', got {allocation!r}"
        )
    comps = _split_components(topology, p, r)
    prof = _profiler()
    with prof.phase("mc.strat.plan"):
        weights = failure_count_weights(comps.q)
        retained = _retained_strata(weights, tail_epsilon)
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

    def sample_stratum(k: int, count: int) -> np.ndarray:
        with prof.phase("mc.strat.sample"):
            failures = _conditional_failure_masks(cond, int(k), count, rng)
            site_masks, link_masks = _masks_from_failures(comps, failures)
        return _block_counts(topology, site_masks, link_masks)

    if sampled.size and budget > 0:
        shares = weights[sampled].astype(np.float64)
        stratum_counts: Dict[int, np.ndarray] = {}
        stratum_n: Dict[int, int] = {}
        if allocation == "neyman":
            # Pilot pass: proportional spend of a budget slice, then
            # re-apportion the remainder by W_k * s_k (Neyman), where
            # s_k is the pilot's per-sample spread of the mean
            # normalized vote share (a scalar proxy for the density's
            # within-stratum variability).
            pilot_budget = max(int(budget * pilot_fraction),
                               min(budget, 4 * sampled.size))
            pilot_budget = min(pilot_budget, budget)
            pilot_alloc = np.maximum(
                _largest_remainder(shares, pilot_budget),
                min(2, pilot_budget))
            spreads = np.zeros(sampled.size, dtype=np.float64)
            for idx, k in enumerate(sampled):
                count = int(pilot_alloc[idx])
                counts = sample_stratum(int(k), count)
                stratum_counts[int(k)] = counts
                stratum_n[int(k)] = count
                # Per-sample scalar: mean over sites of v/T, recovered
                # from the histogram (sufficient for a spread estimate).
                votes = np.arange(T + 1) / max(T, 1)
                per_site = counts @ votes / count
                mean = float(per_site.mean())
                second = float((counts @ (votes ** 2)).mean() / count)
                spreads[idx] = max(second - mean * mean, 0.0) ** 0.5
            remaining = budget - int(sum(stratum_n.values()))
            extra = _largest_remainder(shares * spreads, max(remaining, 0))
            final_alloc = np.array(
                [stratum_n[int(k)] for k in sampled]) + extra
            for idx, k in enumerate(sampled):
                count = int(extra[idx])
                if count > 0:
                    stratum_counts[int(k)] = stratum_counts[int(k)] + \
                        sample_stratum(int(k), count)
                    stratum_n[int(k)] += count
        else:
            final_alloc = _largest_remainder(shares, budget)
            for idx, k in enumerate(sampled):
                count = int(final_alloc[idx])
                if count <= 0:
                    continue
                stratum_counts[int(k)] = sample_stratum(int(k), count)
                stratum_n[int(k)] = count
        for k, counts in stratum_counts.items():
            count = stratum_n[k]
            if count > 0:
                matrix += weights[k] * counts / count
                allocations[k] = count

    retained_mass = float(weights[list(exact)].sum()
                          + weights[list(allocations)].sum())
    if retained_mass <= 0.0:
        raise DensityError("no stratum retained; check reliabilities")
    # Conditioning on the retained strata keeps rows proper densities;
    # the dropped tail (<= tail_epsilon plus allocation-starved mass)
    # contributes exactly zero.
    matrix /= retained_mass
    if return_plan:
        plan = StratificationPlan(
            weights=weights,
            allocations=allocations,
            exact_strata=exact,
            retained_mass=retained_mass,
            allocation=allocation,
        )
        return matrix, plan
    return matrix


# ----------------------------------------------------------------------
# Importance-sampling estimator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ImportanceStats:
    """Weight diagnostics of one importance-sampled run."""

    n_samples: int
    #: Kish effective sample size ``(sum w)^2 / sum w^2``.
    effective_samples: float
    mean_weight: float
    max_weight: float


def importance_density_matrix(
    topology: Topology,
    p: Reliability,
    r: Reliability,
    n_samples: int = 10_000,
    seed: RandomState = None,
    target_failures: float = 2.0,
    mixture: float = 0.25,
    batch_size: int = 2048,
    return_stats: bool = False,
):
    """Estimate the density matrix by defensive-mixture importance sampling.

    Designed for rare-failure regimes (p >= 0.99): the proposal inflates
    every fallible failure probability to at least
    ``target_failures / m`` so failure states are actually visited,
    while the ``mixture`` fraction of nominal-law samples bounds every
    likelihood weight by ``1 / mixture``. Returns the self-normalized
    density matrix; with ``return_stats`` also an
    :class:`ImportanceStats` whose ``effective_samples`` should replace
    the raw sample count in confidence-interval math.
    """
    if n_samples <= 0:
        raise SimulationError(f"n_samples must be positive, got {n_samples}")
    if not 0.0 < mixture <= 1.0:
        raise SimulationError(f"mixture must be in (0, 1], got {mixture}")
    if target_failures <= 0.0:
        raise SimulationError(
            f"target_failures must be positive, got {target_failures}")
    comps = _split_components(topology, p, r)
    m = comps.q.shape[0]
    if m == 0:
        # Fully deterministic network: one state carries all the mass.
        site_masks, link_masks = _masks_from_failures(
            comps, np.zeros((1, 0), dtype=bool))
        matrix = _block_counts(topology, site_masks, link_masks)
        if return_stats:
            return matrix, ImportanceStats(n_samples, float(n_samples), 1.0, 1.0)
        return matrix

    q = comps.q
    q_prop = np.maximum(q, min(0.5, target_failures / m))
    with np.errstate(divide="ignore"):
        log_fail = np.log(q_prop) - np.log(q)
        log_up = np.log1p(-q_prop) - np.log1p(-q)

    rng = as_generator(seed)
    prof = _profiler()
    n, T = topology.n_sites, topology.total_votes
    matrix = np.zeros((n, T + 1), dtype=np.float64)
    weight_sum = 0.0
    weight_sq_sum = 0.0
    max_weight = 0.0
    remaining = n_samples
    while remaining > 0:
        count = min(batch_size, remaining)
        remaining -= count
        with prof.phase("mc.is.sample"):
            from_nominal = rng.random(count) < mixture
            u = rng.random((count, m))
            failures = np.where(from_nominal[:, None], u < q, u < q_prop)
            # log g(x)/p(x), then w = 1 / (lam + (1-lam) g/p): bounded
            # by 1/lam, exact for product-Bernoulli nominal & proposal.
            log_ratio = failures @ log_fail + (~failures) @ log_up
            w = 1.0 / (mixture + (1.0 - mixture) * np.exp(log_ratio))
            site_masks, link_masks = _masks_from_failures(comps, failures)
        matrix += _block_counts(topology, site_masks, link_masks, weights=w)
        weight_sum += float(w.sum())
        weight_sq_sum += float((w * w).sum())
        max_weight = max(max_weight, float(w.max()))

    if weight_sum <= 0.0:
        raise DensityError("importance weights collapsed to zero mass")
    matrix /= weight_sum  # self-normalized estimator: rows sum to 1
    if return_stats:
        stats = ImportanceStats(
            n_samples=n_samples,
            effective_samples=weight_sum * weight_sum / weight_sq_sum,
            mean_weight=weight_sum / n_samples,
            max_weight=max_weight,
        )
        return matrix, stats
    return matrix

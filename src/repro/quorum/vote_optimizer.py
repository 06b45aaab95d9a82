"""Vote assignment optimization for heterogeneous networks.

The paper fixes a uniform one-vote-per-copy assignment (its topologies
and reliabilities are symmetric) and optimizes the quorums; the related
work it builds on (Cheung, Ahamad & Ammar, GIT-ICS-88/20) optimizes the
*vote* assignment too. This module provides that companion optimization
for the asymmetric cases the paper leaves open: given a topology with
per-site reliabilities, find an integer vote vector (of fixed total) and
the matching optimal quorums that maximize availability.

The objective for a candidate vote vector ``w`` is
``max_{q_r} A(alpha, q_r)`` under the component-vote density induced by
``w`` — evaluated by common-random-numbers Monte-Carlo (the same
network-state sample set scores every candidate, so comparisons between
candidates are low-variance even when each estimate is noisy).

Two search strategies:

- ``exhaustive`` — all compositions of ``total_votes`` over the sites
  (tiny systems only; the ground truth for tests);
- ``hillclimb`` — steepest-ascent over single-vote moves (shift one vote
  from site a to site b), restarted from the uniform assignment; each
  step re-uses the shared state sample.

Scoring is fully vectorized (DESIGN.md §10): the shared
:class:`_StateSample` batch-labels all sampled states once at
construction, scores a candidate with one scatter-add over the
precomputed label matrix, and evaluates hillclimb single-vote moves by
*delta* — a move only changes vote totals inside the components
containing the two sites involved, so most of the histogram is reused.
Every intermediate is an exact small integer, so a delta-scored move is
bitwise what a full rescoring of the moved vector gives (the per-state
loop in ``tests/oracles.py`` is the oracle of both).
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Tuple

import numpy as np

from repro.analytic.density import reliability_vector
from repro.connectivity.components import (
    batched_component_entries,
    batched_component_labels,
    entry_vote_totals,
    gather_groups,
)
from repro.errors import OptimizationError, VoteAssignmentError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import OptimizationResult, optimal_read_quorum
from repro.rng import RandomState, as_generator
from repro.telemetry.recorder import current as _current_recorder
from repro.topology.model import Topology
from dataclasses import dataclass

__all__ = ["VoteSearchResult", "optimize_votes", "availability_of_votes"]

#: Exhaustive composition enumeration guard.
MAX_EXHAUSTIVE_STATES = 200_000


@dataclass(frozen=True)
class VoteSearchResult:
    """Outcome of a vote-assignment search."""

    votes: Tuple[int, ...]
    quorum: OptimizationResult
    availability: float
    method: str
    candidates_evaluated: int

    @property
    def total_votes(self) -> int:
        return int(sum(self.votes))


class _StateSample:
    """Common random numbers: one set of network states scores all vote vectors.

    All ``n_samples`` states are labelled at construction with a single
    block-diagonal :func:`batched_component_labels` call; the label
    matrix plus its by-component entry index are the only per-sample
    structures any scoring path touches afterwards.
    """

    def __init__(
        self,
        topology: Topology,
        p,
        r,
        n_samples: int,
        seed: RandomState,
    ) -> None:
        rng = as_generator(seed)
        site_rel = reliability_vector(p, topology.n_sites, "site reliability")
        link_rel = reliability_vector(r, topology.n_links, "link reliability")
        self.site_masks = rng.random((n_samples, topology.n_sites)) < site_rel
        link_draws = rng.random((n_samples, topology.n_links))
        with _current_recorder().phase("votesearch.label"):
            self.labels = batched_component_labels(
                topology, self.site_masks, link_draws < link_rel
            )
        self.n_samples = n_samples
        self.n_sites = topology.n_sites
        self._up = self.labels >= 0
        self._n_components = int(self.labels.max()) + 1
        self._comp_entries, self._comp_starts = batched_component_entries(self.labels)

    # ------------------------------------------------------------------
    # Vectorized scoring
    # ------------------------------------------------------------------
    def vote_counts(self, votes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """State-count histogram ``(n_sites, T+1)`` plus each entry's bin.

        :func:`entry_vote_totals` gives every entry its component's
        votes (down entries 0) and one ``bincount`` bins the
        ``(site, total)`` pairs — no per-state Python loop. Counts are
        exact small integers held in float64, so every scoring path that
        consumes them agrees bitwise. ``comp_bins`` holds each up entry's
        bin in the order of the by-component entry index and feeds
        :meth:`moved_counts`.
        """
        with _current_recorder().phase("votesearch.score"):
            votes = np.asarray(votes, dtype=np.int64)
            n, T = self.n_sites, int(votes.sum())
            totals = entry_vote_totals(self.labels, self._up, votes, self._n_components)
            bins = (np.arange(n, dtype=np.int64) * (T + 1) + totals).ravel()
            counts = np.bincount(bins, minlength=n * (T + 1)).astype(np.float64)
            return counts.reshape(n, T + 1), bins[self._comp_entries]

    def moved_counts(
        self,
        counts: np.ndarray,
        comp_bins: np.ndarray,
        votes: np.ndarray,
        a: int,
        b: int,
    ) -> np.ndarray:
        """Histogram for ``votes`` with one vote moved ``a -> b``, by delta.

        A single-vote move only changes totals inside the components
        containing ``a`` or ``b``; states where the two sites share a
        component (or where the moving site is down) contribute no
        change. Only the affected entries are re-binned — one gather of
        their bins, then one bin lower on ``a``'s side and one higher on
        ``b``'s — so a hillclimb sweep over all ``O(n^2)`` moves costs far
        less than ``n^2`` full rescores. Counts are exact integers, so the
        result is bitwise identical to ``vote_counts(moved votes)``.
        """
        if votes[a] <= 0:
            raise OptimizationError(f"site {a} has no vote to move")
        with _current_recorder().phase("votesearch.delta"):
            width = counts.size
            la = self.labels[:, a]
            lb = self.labels[:, b]
            separated = la != lb
            losing = la[(la >= 0) & separated]
            gaining = lb[(lb >= 0) & separated]
            starts = self._comp_starts
            n_losing = int((starts[losing + 1] - starts[losing]).sum())
            old = gather_groups(comp_bins, starts, np.concatenate([losing, gaining]))
            new = old + 1
            new[:n_losing] -= 2  # a's side loses the vote, b's side gains it
            moved = np.bincount(new, minlength=width) - np.bincount(old, minlength=width)
            return counts + moved.reshape(counts.shape)

    def density_matrix(self, votes: np.ndarray) -> np.ndarray:
        """Empirical per-site density of component votes under ``votes``."""
        counts, _ = self.vote_counts(votes)
        return counts / self.n_samples


def availability_of_votes(
    sample: _StateSample,
    votes: np.ndarray,
    alpha: float,
) -> Tuple[float, OptimizationResult]:
    """Best-quorum availability of one vote vector on a shared sample."""
    matrix = sample.density_matrix(votes)
    model = AvailabilityModel.from_density_matrix(matrix)
    result = optimal_read_quorum(model, alpha)
    return result.availability, result


def _compositions(total: int, parts: int):
    """All non-negative integer vectors of length ``parts`` summing to ``total``."""
    for dividers in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for d in dividers:
            out.append(d - prev - 1)
            prev = d
        out.append(total + parts - 2 - prev)
        yield out


def optimize_votes(
    topology: Topology,
    alpha: float,
    p,
    r,
    total_votes: Optional[int] = None,
    method: str = "hillclimb",
    n_samples: int = 2_000,
    max_iterations: int = 50,
    seed: RandomState = 0,
) -> VoteSearchResult:
    """Find a vote vector (and its optimal quorums) maximizing availability.

    Parameters
    ----------
    topology:
        The network; its current vote vector is ignored.
    alpha:
        Read fraction of the workload.
    p, r:
        Site / link reliabilities (scalars or vectors) defining the
        failure model.
    total_votes:
        Vote budget ``T``; defaults to one per site.
    method:
        ``"hillclimb"`` (default) or ``"exhaustive"`` (tiny systems).
    n_samples:
        Network states in the common-random-numbers sample (at least 1).
    """
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1], got {alpha}")
    if n_samples < 1:
        raise OptimizationError(f"n_samples must be positive, got {n_samples}")
    n = topology.n_sites
    T = n if total_votes is None else int(total_votes)
    if T <= 0:
        raise VoteAssignmentError(f"vote budget must be positive, got {T}")

    sample = _StateSample(topology, p, r, n_samples=n_samples, seed=seed)
    evaluated = 0

    def score(votes: np.ndarray) -> Tuple[float, OptimizationResult]:
        nonlocal evaluated
        evaluated += 1
        return availability_of_votes(sample, votes, alpha)

    if method == "exhaustive":
        from math import comb

        n_states = comb(T + n - 1, n - 1)
        if n_states > MAX_EXHAUSTIVE_STATES:
            raise OptimizationError(
                f"exhaustive vote search over {n_states} compositions exceeds the "
                f"{MAX_EXHAUSTIVE_STATES} cap; use method='hillclimb'"
            )
        best: Optional[Tuple[float, np.ndarray, OptimizationResult]] = None
        for comp in _compositions(T, n):
            votes = np.asarray(comp, dtype=np.int64)
            if votes.sum() != T or (votes < 0).any() or votes.max() == 0:
                continue
            value, quorum = score(votes)
            if best is None or value > best[0] + 1e-12:
                best = (value, votes, quorum)
        assert best is not None
        value, votes, quorum = best
        return VoteSearchResult(
            tuple(int(v) for v in votes), quorum, value, "exhaustive", evaluated
        )

    if method != "hillclimb":
        raise OptimizationError(
            f"unknown method {method!r}; choose 'hillclimb' or 'exhaustive'"
        )

    # Hill-climb from (near-)uniform. Steepest ascent: every single-vote
    # move is delta-scored against the sweep's base histogram, the best
    # strictly-improving one is taken. Exact value ties resolve to the
    # lowest (a, b) — moves are enumerated in ascending (a, b) order and
    # a later candidate must be strictly better to displace the
    # incumbent — so the search is deterministic.
    votes = np.full(n, T // n, dtype=np.int64)
    votes[: T - int(votes.sum())] += 1
    value, quorum = score(votes)
    for _ in range(max_iterations):
        base_counts, base_totals = sample.vote_counts(votes)
        best_move: Optional[Tuple[float, int, int, OptimizationResult]] = None
        for a in range(n):
            if votes[a] == 0:
                continue
            for b in range(n):
                if a == b:
                    continue
                evaluated += 1
                cand_counts = sample.moved_counts(
                    base_counts, base_totals, votes, a, b
                )
                model = AvailabilityModel.from_density_matrix(
                    cand_counts / sample.n_samples
                )
                cand_quorum = optimal_read_quorum(model, alpha)
                cand_value = cand_quorum.availability
                if cand_value > value + 1e-12 and (
                    best_move is None or cand_value > best_move[0]
                ):
                    best_move = (cand_value, a, b, cand_quorum)
        if best_move is None:
            break
        value, a, b, quorum = best_move
        votes[a] -= 1
        votes[b] += 1
    return VoteSearchResult(
        tuple(int(v) for v in votes), quorum, value, "hillclimb", evaluated
    )

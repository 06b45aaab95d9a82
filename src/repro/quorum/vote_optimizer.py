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

The search is steepest ascent over single-vote moves (shift one vote
from site a to site b), started from the uniform assignment; each step
re-uses the shared state sample. Its ground truth on tiny systems, the
search over every composition of ``total_votes``, lives with the tests
(``tests/oracles.py::exhaustive_votes``).

Scoring is vectorized (DESIGN.md §10): the shared :class:`_StateSample`
labels its sampled states once at construction, in slot-bounded
sub-blocks, and scores one vote vector with one weighted ``bincount``
over its distinct component member sets. A hillclimb
sweep scores all ``n(n-1)`` single-vote moves at once:
:meth:`_StateSample.move_uppers` gives every move the exact integer
upper cumulative of its site-summed histogram from a handful of
``bincount`` and matrix products, and the sweep takes each move's best
quorum from those. Only the moves within a rounding window of the
sweep's best are re-scored one vector at a time, so the climb takes
bit for bit the moves a per-candidate loop would
(``tests/oracles.py::hillclimb_reference``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analytic.density import reliability_vector
from repro.connectivity.components import batched_component_labels, sub_blocks
from repro.errors import OptimizationError, VoteAssignmentError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import OptimizationResult, optimal_read_quorum
from repro.rng import RandomState, as_generator
from repro.telemetry.recorder import current as _current_recorder
from repro.topology.model import Topology

__all__ = ["VoteSearchResult", "optimize_votes", "availability_of_votes"]

#: A move must beat the current value by more than this to be taken.
_IMPROVEMENT = 1e-12

#: Sweep values and per-vector values differ by float rounding (about
#: 1e-14 at 100 sites) plus the quorum optimizer's 1e-12 tie tolerance,
#: so every move the per-vector rule could pick lies within this of the
#: sweep's best (DESIGN.md §10).
_SHORTLIST_WINDOW = 1e-11

#: Component rows per matrix product in :meth:`_StateSample.move_uppers`
#: (bounds the dense membership block at this many rows times n_sites).
_CHUNK_ROWS = 4_096


@dataclass(frozen=True)
class VoteSearchResult:
    """Outcome of a vote-assignment search."""

    votes: Tuple[int, ...]
    quorum: OptimizationResult
    availability: float
    candidates_evaluated: int

    @property
    def total_votes(self) -> int:
        return int(sum(self.votes))


class _StateSample:
    """Common random numbers: one set of network states scores all vote vectors.

    The sample is labelled at construction, one :func:`sub_blocks` range
    of states per :func:`batched_component_labels` call: the site masks
    are drawn first, then each range's link uniforms just before it is
    labelled, which is the stream of one ``(n_samples, n_links)`` draw.
    Each range's compacted ids are offset by the components of the ranges
    before it, so :attr:`labels` are those of one call over the whole
    sample. The distinct component member sets and their multiplicities
    are the only per-sample structures any scoring path reads afterwards.
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
        self.n_samples = n_samples
        self.n_sites = topology.n_sites
        self.labels = np.empty((n_samples, topology.n_sites), dtype=np.int64)
        with _current_recorder().phase("votesearch.label"):
            n_components = 0
            for rows in sub_blocks(topology, n_samples):
                link_masks = rng.random(
                    (rows.stop - rows.start, topology.n_links)) < link_rel
                labels = batched_component_labels(
                    topology, self.site_masks[rows], link_masks)
                up = labels >= 0
                labels[up] += n_components
                self.labels[rows] = labels
                if up.any():
                    n_components = int(labels.max()) + 1
            self._n_components = n_components
            self.members, multiplicity = self._distinct_components()
        sizes = self.members.sum(axis=1)
        self.weights = (multiplicity * sizes).astype(np.float64)
        # One entry per (distinct set, member site), for :meth:`vote_counts`.
        self._entry_sets, self._entry_sites = np.nonzero(self.members)
        self._entry_states = multiplicity[self._entry_sets].astype(np.float64)
        self._down = n_samples - self.site_masks.sum(axis=0)

    def _distinct_components(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each distinct member set of a sampled component, with its
        multiplicity.

        Returns ``(members, multiplicity)``: ``members[k]`` marks the
        sites of the k-th distinct set (bool, ``(K, n)``) and
        ``multiplicity[k]`` is the number of sampled states holding it (a
        set occurs at most once per state). Sets are keyed by their
        packed bit rows, so equal sets from different states merge
        exactly. :attr:`weights` is the multiplicity times the set's
        size: the up entries it stands for.
        """
        up = self.labels >= 0
        members = np.zeros((self._n_components, self.n_sites), dtype=bool)
        members[self.labels[up], np.nonzero(up)[1]] = True
        rows, counts = np.unique(np.packbits(members, axis=1), axis=0,
                                 return_counts=True)
        members = np.unpackbits(rows, axis=1, count=self.n_sites).astype(bool)
        return members, counts

    # ------------------------------------------------------------------
    # Vectorized scoring
    # ------------------------------------------------------------------
    def vote_counts(self, votes: np.ndarray) -> np.ndarray:
        """State-count histogram ``(n_sites, T+1)`` of component vote totals.

        Read off the distinct member sets, not the label matrix: a set of
        total ``t`` held by ``m`` states adds ``m`` to bin ``(s, t)`` of
        each of its sites ``s`` (one weighted ``bincount`` over the
        sets' entries), and a site's down states add to its bin 0. The
        counts are exact small integers held in float64, the same as
        binning every ``(state, site)`` entry, so every scoring path that
        consumes them agrees bitwise.
        """
        with _current_recorder().phase("votesearch.score"):
            votes = np.asarray(votes, dtype=np.int64)
            n, T = self.n_sites, int(votes.sum())
            totals = (self.members @ votes)[self._entry_sets]
            bins = self._entry_sites * (T + 1) + totals
            counts = np.bincount(bins, weights=self._entry_states,
                                 minlength=n * (T + 1)).reshape(n, T + 1)
            counts[:, 0] += self._down
            return counts

    def density_matrix(self, votes: np.ndarray) -> np.ndarray:
        """Empirical per-site density of component votes under ``votes``."""
        return self.vote_counts(votes) / self.n_samples

    def move_uppers(self, votes: np.ndarray) -> np.ndarray:
        """``U[t-1, a, b]``: entries whose component holds ``>= t`` votes
        after one vote moves ``a -> b``, for ``t = 1..T``, summed over sites.

        Shape ``(T, n, n)``, integers held exactly in float64. A move
        changes totals only in states where ``a`` and ``b`` lie in
        different components: each entry of ``a``'s component (total
        ``X``) drops to ``X - 1`` and each entry of ``b``'s (total ``Y``)
        rises to ``Y + 1``. With ``G[x, a, b]`` the up entries of the
        components of total ``x`` that hold both ``a`` and ``b``, summed
        over states, and ``P[x, a] = G[x, a, a]``,

            U_ab[t] = U[t] - P[t, a] + P[t-1, b] + G[t, a, b] - G[t-1, a, b]

        where ``U`` is the unmoved vector's count. ``G[x]`` is
        ``E^T diag(weight) E`` over the member rows ``E`` of the distinct
        components of total ``x`` (:attr:`members`, :attr:`weights`),
        multiplied in blocks of at most :data:`_CHUNK_ROWS` rows. Only
        legal moves (``a != b``, ``votes[a] >= 1``) are meaningful.
        """
        votes = np.asarray(votes, dtype=np.int64)
        n, T = self.n_sites, int(votes.sum())
        totals = self.members @ votes
        order = np.argsort(totals, kind="stable")
        G = np.zeros((T + 1, n, n))
        for lo in range(0, order.size, _CHUNK_ROWS):
            rows = order[lo:lo + _CHUNK_ROWS]
            block = self.members[rows].astype(np.float64)
            weighted = block * self.weights[rows, None]
            chunk_totals = totals[rows]
            cuts = np.flatnonzero(np.diff(chunk_totals)) + 1
            for start, stop in zip(np.r_[0, cuts], np.r_[cuts, rows.size]):
                G[chunk_totals[start]] += block[start:stop].T @ weighted[start:stop]
        P = np.diagonal(G, axis1=1, axis2=2)
        upper = np.cumsum(np.bincount(totals, self.weights, T + 1)[::-1])[::-1]
        out = G[1:] - G[:-1]
        out += upper[1:, None, None]
        out -= P[1:, :, None]
        out += P[:-1, None, :]
        return out

    def sweep(self, votes: np.ndarray, alpha: float) -> np.ndarray:
        """Best ``A(alpha, q_r)`` of every single-vote move ``a -> b``.

        Shape ``(n, n)``; illegal moves (``a == b`` or ``votes[a] == 0``)
        read ``-inf``. Each value is the maximum over ``q_r = 1..max(T//2, 1)``
        of :meth:`move_uppers` mixed as in Figure 1 step 3, so it agrees
        with :func:`availability_of_votes` on the moved vector up to
        float rounding and the optimizer's tie tolerance.
        """
        with _current_recorder().phase("votesearch.sweep"):
            votes = np.asarray(votes, dtype=np.int64)
            T = int(votes.sum())
            uppers = self.move_uppers(votes)
            Q = max(T // 2, 1)
            scale = 1.0 / (self.n_sites * self.n_samples)
            # q_r = 1..Q reads U[q_r] and U[T - q_r + 1] (rows q_r - 1, T - q_r).
            values = uppers[:Q] * (alpha * scale)
            values += uppers[T - Q:][::-1] * ((1.0 - alpha) * scale)
            best = values.max(axis=0)
            best[votes == 0, :] = -np.inf
            np.fill_diagonal(best, -np.inf)
            return best


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


def optimize_votes(
    topology: Topology,
    alpha: float,
    p,
    r,
    total_votes: Optional[int] = None,
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

    # Hill-climb from (near-)uniform. Steepest ascent: one sweep scores
    # every legal single-vote move and the best strictly-improving one is
    # taken. The shortlist of moves near the sweep's best is re-scored
    # per vector in ascending (a, b) order with the per-candidate rule —
    # beat value + 1e-12, be strictly better to displace the incumbent —
    # so exact ties resolve to the lowest (a, b) and every decision is
    # the one full per-move scoring would make.
    votes = np.full(n, T // n, dtype=np.int64)
    votes[: T - int(votes.sum())] += 1
    value, quorum = availability_of_votes(sample, votes, alpha)
    evaluated = 1
    for _ in range(max_iterations):
        sweep = sample.sweep(votes, alpha)
        evaluated += int(np.isfinite(sweep).sum())
        floor = max(float(sweep.max()), value + _IMPROVEMENT) - _SHORTLIST_WINDOW
        best_move: Optional[Tuple[float, int, int, OptimizationResult]] = None
        for a, b in zip(*np.nonzero(sweep >= floor)):
            moved = votes.copy()
            moved[a] -= 1
            moved[b] += 1
            cand_value, cand_quorum = availability_of_votes(sample, moved, alpha)
            if cand_value > value + _IMPROVEMENT and (
                best_move is None or cand_value > best_move[0]
            ):
                best_move = (cand_value, int(a), int(b), cand_quorum)
        if best_move is None:
            break
        value, a, b, quorum = best_move
        votes[a] -= 1
        votes[b] += 1
    return VoteSearchResult(
        tuple(int(v) for v in votes), quorum, value, evaluated
    )

"""Per-shard quorum optimization, grouped by workload signature.

The paper optimizes one item; a sharded database holds 10^4-10^6. The
saving grace is that items cluster: a catalog of a million entries might
carry twenty distinct ``(alpha, vote-vector)`` workload classes, and the
optimal assignment depends on the item only through that signature. So:

1. group items by identical ``(alpha_i, votes_i)`` signatures — an exact
   partition (property-tested);
2. run the paper's Figure-1 optimization ONCE per group (density from
   the closed form, exact enumeration, or seeded Monte Carlo — all
   groups share the same seed, so results are invariant under item
   permutation and class duplication);
3. scatter the per-group ``q_r*`` / ``A*`` back to the items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ShardingError
from repro.quorum.availability import AvailabilityModel
from repro.quorum.optimizer import OptimizationResult, optimal_read_quorum
from repro.sharding.grouping import group_rows
from repro.topology.model import Topology

__all__ = [
    "ShardGroup",
    "ShardPlan",
    "group_items",
    "optimize_shards",
]

#: Free-component cap above which ``engine="auto"`` replaces the exact
#: enumeration density with seeded Monte Carlo. Not a cost limit: the
#: collapse-DFS takes ~0.015 s per vote class on ring(11) (22
#: components) and ~0.26 s on ring(14) (28, its cap). It stays at 22
#: because ``auto``'s choice is part of every plan's output: raising it
#: would move the plans of every topology of 23..28 components.
_ENUMERATION_MAX_COMPONENTS = 22


@dataclass(frozen=True)
class ShardGroup:
    """One workload class: items sharing ``(alpha, votes)`` exactly."""

    index: int
    alpha: float
    votes: Tuple[int, ...]
    item_indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.item_indices.shape[0])

    @property
    def total_votes(self) -> int:
        return int(sum(self.votes))


@dataclass(frozen=True)
class ShardPlan:
    """Per-item assignments scattered back from per-group optimizations."""

    groups: Tuple[ShardGroup, ...]
    group_of: np.ndarray
    read_quorums: np.ndarray
    availabilities: np.ndarray
    group_results: Tuple[OptimizationResult, ...]

    @property
    def n_items(self) -> int:
        return int(self.group_of.shape[0])

    @property
    def optimizations_run(self) -> int:
        return len(self.groups)


def group_items(
    alphas: Union[np.ndarray, Sequence[float]],
    votes: np.ndarray,
) -> Tuple[np.ndarray, Tuple[ShardGroup, ...]]:
    """Partition items by exact ``(alpha, votes-row)`` signature.

    Returns ``(group_of, groups)``: ``group_of[i]`` is the index into
    ``groups`` of item ``i``'s class. Groups are ordered by first
    occurrence, so the partition is stable under appending items and
    permutes predictably with the items themselves.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    votes = np.asarray(votes, dtype=np.int64)
    if alphas.ndim != 1:
        raise ShardingError(f"alphas must be 1-D, got shape {alphas.shape}")
    n_items = alphas.shape[0]
    if votes.ndim != 2 or votes.shape[0] != n_items:
        raise ShardingError(
            f"votes must have shape ({n_items}, n_sites), got {votes.shape}"
        )
    group_of, first = group_rows(np.column_stack((alphas, votes)))
    # One stable sort lists every class's members in item order.
    order = np.argsort(group_of, kind="stable")
    members = np.split(order, np.flatnonzero(np.diff(group_of[order])) + 1)
    groups = tuple(
        ShardGroup(
            index=g,
            alpha=float(alphas[i]),
            votes=tuple(votes[i].tolist()),
            item_indices=ids,
        )
        for g, (i, ids) in enumerate(zip(first, members))
    )
    return group_of, groups


def _group_density(
    topology: Topology,
    group: ShardGroup,
    p: Optional[float],
    r: Optional[float],
    engine: str,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Density matrix for one vote class, under the chosen engine.

    All groups receive the same ``seed`` (common random numbers): the
    optimization of a class must not depend on how many other classes
    exist or where its items sit in the id space.
    """
    if p is None or r is None:
        raise ShardingError(
            "optimize_shards needs site reliability p and link reliability r "
            "unless a precomputed density is supplied"
        )
    revoted = Topology(
        topology.n_sites,
        [(link.a, link.b) for link in topology.links],
        votes=group.votes,
    )
    if engine == "auto":
        free = topology.n_sites + topology.n_links
        engine = (
            "enumeration" if free <= _ENUMERATION_MAX_COMPONENTS else "monte-carlo"
        )
    if engine == "enumeration":
        from repro.analytic.enumeration import enumerate_density_matrix

        return enumerate_density_matrix(
            revoted,
            np.full(topology.n_sites, p),
            np.full(topology.n_links, r),
        )
    if engine == "monte-carlo":
        from repro.analytic.montecarlo import montecarlo_density_matrix

        return montecarlo_density_matrix(
            revoted,
            np.full(topology.n_sites, p),
            np.full(topology.n_links, r),
            n_samples=n_samples,
            seed=seed,
        )
    raise ShardingError(
        f"unknown density engine {engine!r}; "
        "choose from ('auto', 'enumeration', 'monte-carlo')"
    )


def optimize_shards(
    topology: Topology,
    alphas: Union[np.ndarray, Sequence[float]],
    p: Optional[float] = None,
    r: Optional[float] = None,
    *,
    votes: Optional[np.ndarray] = None,
    engine: str = "auto",
    n_samples: int = 4000,
    seed: int = 0,
    density: Optional[np.ndarray] = None,
    model_transform=None,
) -> ShardPlan:
    """Optimal per-item read quorums via one optimization per class.

    ``density`` short-circuits the density computation with a precomputed
    row or matrix (e.g. a closed form) — only valid when every item
    shares one vote class. ``model_transform`` lets the verification
    battery inject a bugged model wrapper.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or alphas.shape[0] < 1:
        raise ShardingError("alphas must be a non-empty 1-D array")
    outside = ~((alphas >= 0.0) & (alphas <= 1.0))  # NaN compares false
    if outside.any():
        raise ShardingError(
            f"every item alpha must lie in [0, 1], got {alphas[outside][0]}")
    n_items = alphas.shape[0]
    if votes is None:
        votes = np.broadcast_to(
            np.asarray(topology.votes, dtype=np.int64),
            (n_items, topology.n_sites),
        )
    votes = np.asarray(votes, dtype=np.int64)
    group_of, groups = group_items(alphas, votes)

    if density is not None:
        vote_classes = {g.votes for g in groups}
        if len(vote_classes) > 1:
            raise ShardingError(
                "a precomputed density applies to a single vote class; "
                f"got {len(vote_classes)} distinct vote vectors"
            )

    # One model per distinct vote class, one optimizer sweep per group.
    models: Dict[Tuple[int, ...], AvailabilityModel] = {}
    read_quorums = np.empty(n_items, dtype=np.int64)
    availabilities = np.empty(n_items, dtype=np.float64)
    results: List[OptimizationResult] = []
    for group in groups:
        model = models.get(group.votes)
        if model is None:
            if density is not None:
                matrix = np.asarray(density, dtype=np.float64)
                if matrix.ndim == 1:
                    model = AvailabilityModel(matrix, matrix)
                else:
                    model = AvailabilityModel.from_density_matrix(matrix)
            else:
                matrix = _group_density(
                    topology, group, p, r, engine, n_samples, seed
                )
                model = AvailabilityModel.from_density_matrix(matrix)
            if model_transform is not None:
                model = model_transform(model)
            models[group.votes] = model
        best = optimal_read_quorum(model, group.alpha)
        results.append(best)
        read_quorums[group.item_indices] = best.read_quorum
        availabilities[group.item_indices] = best.availability
    return ShardPlan(
        groups=groups,
        group_of=group_of,
        read_quorums=read_quorums,
        availabilities=availabilities,
        group_results=tuple(results),
    )

"""Configuration for the sharded multi-item engine.

A :class:`ShardConfig` is the sharded analogue of
:class:`~repro.simulation.config.SimulationConfig`: one network, one
failure/repair process, but N replicated items with per-item vote
vectors (an ``(n_items, n_sites)`` matrix) and per-item read quorums
(an ``(n_items,)`` vector). Accounting is restricted to the paper's
``"sampled"`` mode — integer access counts are what make the vectorized
engine bitwise-equal to the per-item reference loop (one tracker and one
protocol per item) regardless of class structure or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ShardingError
from repro.sharding.grouping import group_rows
from repro.sharding.workload import ItemWorkload
from repro.simulation.config import (
    INITIAL_STATES,
    SimulationConfig,
    access_volumes,
    fallible_masks,
)
from repro.simulation.processes import failure_parameters
from repro.topology.model import Topology

__all__ = ["ShardConfig"]


@dataclass(frozen=True)
class ShardConfig:
    """Everything one sharded batch needs.

    ``votes`` defaults to every item fully replicated with the topology's
    vote assignment (the paper's setting, repeated per item); the default
    ``read_quorums`` is the write-favouring majority ``max(T_i // 2, 1)``
    so that both quorum sides are feasible for every item.
    """

    topology: Topology
    workload: ItemWorkload
    votes: Optional[np.ndarray] = None
    read_quorums: Optional[np.ndarray] = None
    mean_time_to_failure: Union[float, np.ndarray] = 128.0
    mean_time_to_repair: Union[float, np.ndarray] = 128.0 * (1 - 0.96) / 0.96
    warmup_accesses: float = 1_000.0
    accesses_per_batch: float = 10_000.0
    n_batches: int = 5
    initial_state: str = "stationary"
    fallible_sites: Optional[np.ndarray] = None
    fallible_links: Optional[np.ndarray] = None
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        topo = self.topology
        wl = self.workload
        if wl.n_sites != topo.n_sites:
            raise ShardingError(
                f"workload covers {wl.n_sites} sites but the topology has "
                f"{topo.n_sites}"
            )
        n_items = wl.n_items
        votes = self.votes
        if votes is None:
            # One row seen n_items times: a read-only view, never copied.
            votes = np.broadcast_to(
                np.asarray(topo.votes, dtype=np.int64), (n_items, topo.n_sites)
            )
        votes = np.asarray(votes, dtype=np.int64)
        if votes.shape != (n_items, topo.n_sites):
            raise ShardingError(
                f"votes must have shape ({n_items}, {topo.n_sites}), "
                f"got {votes.shape}"
            )
        if (votes < 0).any():
            raise ShardingError("per-item votes must be non-negative")
        totals = votes.sum(axis=1)
        if (totals <= 0).any():
            bad = int(np.nonzero(totals <= 0)[0][0])
            raise ShardingError(
                f"item {bad} has no votes; every item needs positive total votes"
            )
        object.__setattr__(self, "votes", votes)

        read_quorums = self.read_quorums
        if read_quorums is None:
            read_quorums = np.maximum(totals // 2, 1)
        read_quorums = np.asarray(read_quorums, dtype=np.int64)
        if read_quorums.ndim == 0:
            read_quorums = np.full(n_items, int(read_quorums), dtype=np.int64)
        if read_quorums.shape != (n_items,):
            raise ShardingError(
                f"read_quorums must have shape ({n_items},), got {read_quorums.shape}"
            )
        if ((read_quorums < 1) | (read_quorums > totals)).any():
            bad = int(
                np.nonzero((read_quorums < 1) | (read_quorums > totals))[0][0]
            )
            raise ShardingError(
                f"item {bad}: read quorum {int(read_quorums[bad])} outside "
                f"1..{int(totals[bad])}"
            )
        object.__setattr__(self, "read_quorums", read_quorums)

        failure_parameters(
            self.mean_time_to_failure, self.mean_time_to_repair,
            topo.n_sites + topo.n_links, ShardingError,
        )
        access_volumes(self.warmup_accesses, self.accesses_per_batch, ShardingError)
        fallible_masks(topo, self.fallible_sites, self.fallible_links, ShardingError)
        if self.n_batches <= 0:
            raise ShardingError(f"n_batches must be positive, got {self.n_batches}")
        if self.initial_state not in INITIAL_STATES:
            raise ShardingError(
                f"initial_state must be one of {INITIAL_STATES}, "
                f"got {self.initial_state!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_simulation(
        cls,
        sim: SimulationConfig,
        workload: ItemWorkload,
        votes: Optional[np.ndarray] = None,
        read_quorums: Optional[Union[np.ndarray, Sequence[int]]] = None,
        **overrides,
    ) -> "ShardConfig":
        """Borrow network/failure/accounting knobs from a single-item config."""
        fields = dict(
            topology=sim.topology,
            workload=workload,
            votes=votes,
            read_quorums=(
                None if read_quorums is None
                else np.asarray(read_quorums, dtype=np.int64)
            ),
            mean_time_to_failure=sim.mean_time_to_failure,
            mean_time_to_repair=sim.mean_time_to_repair,
            warmup_accesses=sim.warmup_accesses,
            accesses_per_batch=sim.accesses_per_batch,
            n_batches=sim.n_batches,
            initial_state=sim.initial_state,
            fallible_sites=sim.fallible_sites,
            fallible_links=sim.fallible_links,
            seed=sim.seed,
        )
        fields.update(overrides)
        return cls(**fields)

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return self.workload.n_items

    @property
    def total_votes(self) -> np.ndarray:
        """Per-item total votes ``T_i``, shape ``(n_items,)``."""
        return self.votes.sum(axis=1)

    @property
    def write_quorums(self) -> np.ndarray:
        """Per-item ``q_w = T_i - q_r + 1`` (the paper's coupling)."""
        return self.total_votes - self.read_quorums + 1

    @property
    def max_total_votes(self) -> int:
        """Largest per-item vote total — the density histogram width - 1."""
        return int(self.total_votes.max())

    def quorum_classes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Items grouped by exact ``(votes row, q_r)``: ``(class_of, first)``.

        Two items of one class get the same grant decision at every site
        in every network state (``q_w`` follows from the row). Computed
        on the first request, never in ``__post_init__`` (it is part of a
        run), and kept: every engine and ``ShardRunResult.n_classes``
        read one grouping per config object. The arrays are read-only.
        """
        classes = self.__dict__.get("_quorum_classes")
        if classes is None:
            classes = group_rows(np.column_stack((self.votes, self.read_quorums)))
            for array in classes:
                array.setflags(write=False)
            object.__setattr__(self, "_quorum_classes", classes)
        return classes

    @property
    def warmup_time(self) -> float:
        return self.warmup_accesses / self.workload.aggregate_rate

    @property
    def batch_time(self) -> float:
        return self.accesses_per_batch / self.workload.aggregate_rate

    def with_seed(self, seed: Optional[int]) -> "ShardConfig":
        return replace(self, seed=seed)

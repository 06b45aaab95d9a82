"""Batch fan-out and aggregation for the sharded engine.

:func:`run_sharded` mirrors the single-item campaign runner: batch ``k``
derives its streams from ``(seed, k)`` inside the engine, so fanning the
batches over a process pool (``n_workers > 1``) is bitwise identical to
a serial run — and to any other worker count. The fan-out is
:func:`repro.pool.fan_out`, the same one the single-item runner uses.

A batch comes back in the engine's layout (SURV time and the time density
per quorum class, the access density as touched cells), so what crosses
the pool and what a run keeps grows with the items only by the per-item
counts. :class:`ShardRunResult` pools per class, in batch order, and
hands each item its class's sums once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ShardingError
from repro.sharding.config import ShardConfig
from repro.sharding.engine import (
    ReferenceShardEngine,
    ShardBatchResult,
    ShardedEngine,
)

__all__ = ["ShardRunResult", "run_sharded", "ENGINE_KINDS"]

#: Selectable accounting paths: the vectorized engine and the retained
#: per-item reference loop it must match bitwise.
ENGINE_KINDS = ("vectorized", "reference")


def _make_engine(config: ShardConfig, engine: str):
    if engine == "vectorized":
        return ShardedEngine(config)
    if engine == "reference":
        return ReferenceShardEngine(config)
    raise ShardingError(
        f"unknown sharded engine {engine!r}; choose from {ENGINE_KINDS}"
    )


@dataclass
class ShardRunResult:
    """Pooled per-item accounting across all batches."""

    config: ShardConfig
    batches: List[ShardBatchResult]

    # ------------------------------------------------------------------
    def _pooled(self, name: str) -> np.ndarray:
        """One stored field summed over the batches, in batch order."""
        out = np.zeros_like(getattr(self.batches[0], name))
        for batch in self.batches:
            out += getattr(batch, name)
        return out

    @property
    def _class_of(self) -> np.ndarray:
        # Every batch of one run comes from one engine kind on one config,
        # so they share the item -> class map.
        return self.batches[0].class_of

    @property
    def reads_submitted(self) -> np.ndarray:
        return self._pooled("reads_submitted")

    @property
    def reads_granted(self) -> np.ndarray:
        return self._pooled("reads_granted")

    @property
    def writes_submitted(self) -> np.ndarray:
        return self._pooled("writes_submitted")

    @property
    def writes_granted(self) -> np.ndarray:
        return self._pooled("writes_granted")

    @property
    def n_classes(self) -> int:
        """Distinct ``(votes row, q_r)`` quorum classes among the items."""
        return int(self.config.quorum_classes()[1].shape[0])

    @property
    def measured_time(self) -> float:
        return sum(batch.measured_time for batch in self.batches)

    @property
    def item_availability(self) -> np.ndarray:
        """Per-item pooled ACC (integer-count ratio; 1.0 for idle items)."""
        submitted = self.reads_submitted + self.writes_submitted
        granted = self.reads_granted + self.writes_granted
        out = np.ones(self.config.n_items, dtype=np.float64)
        active = submitted > 0
        out[active] = granted[active] / submitted[active]
        return out

    @property
    def availability(self) -> float:
        submitted = int((self.reads_submitted + self.writes_submitted).sum())
        granted = int((self.reads_granted + self.writes_granted).sum())
        return granted / submitted if submitted > 0 else 1.0

    def _surv(self, name: str) -> np.ndarray:
        # An item's sum over the batches is its class's sum, the same
        # additions in the same order, so pooling per class and handing
        # each item its class's row is bitwise the per-item sum.
        total = self.measured_time
        if total <= 0:
            return np.zeros(self.config.n_items, dtype=np.float64)
        return (self._pooled(name) / total)[self._class_of]

    @property
    def surv_read(self) -> np.ndarray:
        return self._surv("class_surv_read_time")

    @property
    def surv_write(self) -> np.ndarray:
        return self._surv("class_surv_write_time")

    def density_time(self) -> np.ndarray:
        """Summed ``(n_items, width)`` time-weighted density table."""
        return self._pooled("class_density_time")[self._class_of]

    def density_access(self) -> np.ndarray:
        """Summed ``(n_items, width)`` access-weighted density table
        (integer-valued counts, so exact in any order)."""
        width = self.batches[0].class_density_time.shape[1]
        table = np.zeros(self.config.n_items * width, dtype=np.float64)
        for batch in self.batches:
            table[batch.access_cells] += batch.access_counts
        return table.reshape(-1, width)

    def bitwise_equal(self, other: "ShardRunResult") -> bool:
        return len(self.batches) == len(other.batches) and all(
            a.bitwise_equal(b) for a, b in zip(self.batches, other.batches)
        )


def _run_one_batch(
    shared: Tuple[ShardConfig, str], batch_index: int
) -> ShardBatchResult:
    """The :func:`repro.pool.fan_out` task: one batch on a fresh engine."""
    return _make_engine(*shared).run_batch(batch_index)


# ----------------------------------------------------------------------
def run_sharded(
    config: ShardConfig,
    engine: str = "vectorized",
    n_workers: int = 1,
) -> ShardRunResult:
    """Run every batch of ``config``; bitwise identical for any ``n_workers``.

    ``engine`` selects the vectorized path or the per-item reference
    loop.
    """
    if n_workers <= 0:
        raise ShardingError(f"n_workers must be positive, got {n_workers}")
    indices = range(config.n_batches)
    if n_workers == 1:
        runner = _make_engine(config, engine)
        batches = [runner.run_batch(i) for i in indices]
    else:
        from repro.pool import fan_out

        batches = fan_out(_run_one_batch, (config, engine), indices, n_workers)
    return ShardRunResult(config=config, batches=batches)

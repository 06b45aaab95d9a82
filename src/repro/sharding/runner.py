"""Batch fan-out and aggregation for the sharded engine.

:func:`run_sharded` mirrors the single-item campaign runner: batch ``k``
derives its streams from ``(seed, k)`` inside the engine, so fanning the
batches over a process pool (``n_workers > 1``) is bitwise identical to
a serial run — and to any other worker count. The fan-out is
:func:`repro.pool.fan_out`, the same one the single-item runner uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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
#: per-item multidb reference it must match bitwise.
ENGINE_KINDS = ("vectorized", "reference")


def _make_engine(config: ShardConfig, engine: str, chunk_size: Optional[int]):
    if engine == "vectorized":
        return ShardedEngine(config, chunk_size=chunk_size)
    if engine == "reference":
        return ReferenceShardEngine(config, chunk_size=chunk_size)
    raise ShardingError(
        f"unknown sharded engine {engine!r}; choose from {ENGINE_KINDS}"
    )


@dataclass
class ShardRunResult:
    """Pooled per-item accounting across all batches."""

    config: ShardConfig
    batches: List[ShardBatchResult]

    # ------------------------------------------------------------------
    def _pooled_int(self, name: str) -> np.ndarray:
        out = np.zeros(self.config.n_items, dtype=np.int64)
        for batch in self.batches:
            out += getattr(batch, name)
        return out

    @property
    def reads_submitted(self) -> np.ndarray:
        return self._pooled_int("reads_submitted")

    @property
    def reads_granted(self) -> np.ndarray:
        return self._pooled_int("reads_granted")

    @property
    def writes_submitted(self) -> np.ndarray:
        return self._pooled_int("writes_submitted")

    @property
    def writes_granted(self) -> np.ndarray:
        return self._pooled_int("writes_granted")

    @property
    def measured_time(self) -> float:
        return sum(batch.measured_time for batch in self.batches)

    @property
    def item_availability(self) -> np.ndarray:
        """Per-item pooled ACC (integer-count ratio; 1.0 for idle items)."""
        submitted = (
            self._pooled_int("reads_submitted")
            + self._pooled_int("writes_submitted")
        )
        granted = (
            self._pooled_int("reads_granted")
            + self._pooled_int("writes_granted")
        )
        out = np.ones(self.config.n_items, dtype=np.float64)
        active = submitted > 0
        out[active] = granted[active] / submitted[active]
        return out

    @property
    def availability(self) -> float:
        submitted = int(
            (self._pooled_int("reads_submitted")
             + self._pooled_int("writes_submitted")).sum()
        )
        granted = int(
            (self._pooled_int("reads_granted")
             + self._pooled_int("writes_granted")).sum()
        )
        return granted / submitted if submitted > 0 else 1.0

    @property
    def surv_read(self) -> np.ndarray:
        total = self.measured_time
        if total <= 0:
            return np.zeros(self.config.n_items, dtype=np.float64)
        out = np.zeros(self.config.n_items, dtype=np.float64)
        for batch in self.batches:
            out += batch.surv_read_time
        return out / total

    @property
    def surv_write(self) -> np.ndarray:
        total = self.measured_time
        if total <= 0:
            return np.zeros(self.config.n_items, dtype=np.float64)
        out = np.zeros(self.config.n_items, dtype=np.float64)
        for batch in self.batches:
            out += batch.surv_write_time
        return out / total

    def density_time(self) -> np.ndarray:
        """Summed ``(n_items, width)`` time-weighted density table."""
        out = np.zeros_like(self.batches[0].density_time)
        for batch in self.batches:
            out += batch.density_time
        return out

    def density_access(self) -> np.ndarray:
        out = np.zeros_like(self.batches[0].density_access)
        for batch in self.batches:
            out += batch.density_access
        return out

    def bitwise_equal(self, other: "ShardRunResult") -> bool:
        return len(self.batches) == len(other.batches) and all(
            a.bitwise_equal(b) for a, b in zip(self.batches, other.batches)
        )


def _run_one_batch(
    shared: Tuple[ShardConfig, str, Optional[int]], batch_index: int
) -> ShardBatchResult:
    """The :func:`repro.pool.fan_out` task: one batch on a fresh engine."""
    return _make_engine(*shared).run_batch(batch_index)


# ----------------------------------------------------------------------
def run_sharded(
    config: ShardConfig,
    engine: str = "vectorized",
    n_workers: int = 1,
    chunk_size: Optional[int] = None,
) -> ShardRunResult:
    """Run every batch of ``config``; bitwise identical for any ``n_workers``.

    ``engine`` selects the vectorized path or the per-item multidb
    reference; ``chunk_size`` bounds the vectorized working set (any
    value gives identical results).
    """
    indices = range(config.n_batches)
    if n_workers <= 1:
        runner = _make_engine(config, engine, chunk_size)
        batches = [runner.run_batch(i) for i in indices]
    else:
        from repro.pool import fan_out

        batches = fan_out(_run_one_batch, (config, engine, chunk_size),
                          indices, n_workers)
    return ShardRunResult(config=config, batches=batches)

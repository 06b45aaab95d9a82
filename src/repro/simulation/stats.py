"""Batch-means statistics and Student-t confidence intervals.

The paper reports "average availability over a number of batches ...
with a 95% confidence interval with an interval half-size of at most
±0.5%", running 5–18 batches as needed. Batches are independent (each is
reset to the initial state and uses an independent random stream), so the
classical batch-means estimator applies: the batch availabilities are
i.i.d., and the Student-t interval on their mean is exact under
approximate normality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["student_t_half_width", "confidence_interval", "BatchStatistics"]


def student_t_half_width(values: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the Student-t CI on the mean of ``values``.

    Returns 0 for a single observation (no spread information — callers
    that need precision control should require at least two batches).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise SimulationError(f"need a non-empty 1-D value sequence, got shape {arr.shape}")
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"confidence must be in (0, 1), got {confidence}")
    n = arr.size
    if n == 1:
        return 0.0
    sem = float(arr.std(ddof=1)) / sqrt(n)
    # The Student-t quantile straight from scipy.special: what
    # ``scipy.stats.t.ppf`` evaluates, without importing scipy.stats.
    from scipy.special import stdtrit

    t = float(stdtrit(n - 1, 0.5 + confidence / 2.0))
    return t * sem


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` of the Student-t interval."""
    arr = np.asarray(values, dtype=np.float64)
    half = student_t_half_width(arr, confidence)
    mean = float(arr.mean())
    return mean, mean - half, mean + half


@dataclass(frozen=True)
class BatchStatistics:
    """Summary of one scalar metric across batches."""

    name: str
    values: Tuple[float, ...]
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not self.values:
            raise SimulationError(f"metric {self.name!r} has no batch values")

    @property
    def n_batches(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n_batches > 1 else 0.0

    @property
    def half_width(self) -> float:
        return student_t_half_width(self.values, self.confidence)

    @property
    def interval(self) -> Tuple[float, float]:
        half = self.half_width
        return self.mean - half, self.mean + half

    def meets_precision(self, target_half_width: float) -> bool:
        """True once the CI half-width is within the target (needs >= 2 batches)."""
        return self.n_batches >= 2 and self.half_width <= target_half_width

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.4f} ± {self.half_width:.4f} "
            f"({int(self.confidence * 100)}% CI, {self.n_batches} batches)"
        )

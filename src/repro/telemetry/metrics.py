"""Metric primitives: counters, gauges, and histograms with labels.

The registry is deliberately small; numpy (for the batched histogram
fill) is its only dependency. Metrics are identified by name; each
metric holds one time series per label set
(labels are passed as keyword arguments to the observation methods, the
way Prometheus client libraries do it). A histogram keeps fixed
cumulative buckets — chosen for latency-style measurements — plus count,
sum, sum of squares, min and max per series, so it fills one value at a
time (:meth:`Histogram.observe`) or a whole array in one vectorised call
(:meth:`Histogram.observe_many`). A caller that needs exact quantiles
keeps its samples and computes them itself.

Everything here is the *enabled* implementation. The zero-overhead
disabled path lives in :mod:`repro.telemetry.recorder`: the null recorder
hands out shared no-op metric objects, so instrumented code never
branches on an "is telemetry on?" flag at the call site.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Label sets are canonicalized to sorted item tuples so that
#: ``inc(op="read", site=3)`` and ``inc(site=3, op="read")`` hit the
#: same series.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: latency-shaped, seconds. Wide enough for
#: both microsecond hot-path timings and multi-second batch spans.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)

def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._add(_label_key(labels), amount)

    def labels(self, **labels: object) -> "_CounterSeries":
        """One series, keyed once: its ``inc`` skips the label sorting."""
        return _CounterSeries(self, _label_key(labels))

    def _add(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease (amount={amount})")
        self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over all label sets."""
        return sum(self._series.values())

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)


class _CounterSeries:
    """A :class:`Counter` series bound to one label set (``Counter.labels``)."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._counter._add(self._key, amount)


class Gauge:
    """A point-in-time value, one series per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), math.nan)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)


class _HistogramSeries:
    """Per-label-set histogram state: buckets + moments."""

    __slots__ = ("bucket_counts", "count", "sum", "sum_sq", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def stddev(self) -> float:
        if self.count < 2:
            return 0.0 if self.count == 1 else math.nan
        var = max(0.0, self.sum_sq / self.count - self.mean() ** 2)
        return math.sqrt(var)


class Histogram:
    """Fixed cumulative buckets plus moments per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ReproError(f"histogram {name} needs at least one bucket bound")
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _get(self, labels: Dict[str, object]) -> _HistogramSeries:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.buckets))
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: object) -> None:
        value = float(value)
        series = self._get(labels)
        # Linear scan: bucket lists are short and observations heavily
        # favour the low buckets for timing data.
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series.bucket_counts[idx] += 1
        series.count += 1
        series.sum += value
        series.sum_sq += value * value
        series.min = min(series.min, value)
        series.max = max(series.max, value)

    def observe_many(self, values, **labels: object) -> None:
        """Observe every entry of ``values`` at once.

        Same bucket rule as :meth:`observe` (``value <= bound``, i.e.
        ``searchsorted(..., side="left")``); count, min and max are
        exact, sum and sum_sq are numpy sums. An empty batch creates no
        series.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        series = self._get(labels)
        slots = np.searchsorted(self.buckets, values, side="left")
        added = np.bincount(slots, minlength=len(self.buckets) + 1)
        for i, n in enumerate(added.tolist()):
            series.bucket_counts[i] += n
        series.count += int(values.size)
        series.sum += float(values.sum())
        series.sum_sq += float(np.dot(values, values))
        series.min = min(series.min, float(values.min()))
        series.max = max(series.max, float(values.max()))

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def series(self) -> Dict[LabelKey, _HistogramSeries]:
        return dict(self._series)


class MetricsRegistry:
    """Creates and holds metrics by name; idempotent per (name, kind)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _register(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"cannot re-register as {cls.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def __iter__(self) -> Iterable[object]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

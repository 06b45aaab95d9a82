"""Recorders: the enabled telemetry pipeline and its null twin.

:class:`Telemetry` bundles the observation surfaces — a
:class:`~repro.telemetry.metrics.MetricsRegistry`, a
:class:`~repro.telemetry.spans.SpanCollector`, an
:class:`~repro.telemetry.audit.AuditLog` and a phase table — behind one
object that the simulation stack threads through itself.

A *phase* is a named accumulator for the inner kernels (enumeration
branch/flush, Monte-Carlo labelling blocks, vote-search scoring, the
serving sequencer), where a span per entry would distort the timing and
overflow the span cap: entering one costs two clock reads, and the
recorder keeps only ``{name: [count, wall, cpu]}``.

:class:`NullTelemetry` is the disabled path. Its ``enabled`` flag lets
hot loops skip whole instrumentation blocks with a single boolean test,
and every surface it exposes is a shared no-op singleton — ``span()``
and ``phase()`` both return :data:`~repro.telemetry.spans.NULL_SPAN` —
so code that does call through it costs one attribute lookup and an
empty method. The module-level :data:`NULL` instance is the default
recorder everywhere: constructing a simulation without telemetry never
allocates telemetry state.

A module-level *current* recorder supports layers that are awkward to
plumb an argument through (the kernels, the quorum optimizer, the CLI):
:func:`set_current` installs one, :func:`use` scopes one to a ``with``
block, and :func:`resolve` is the idiom constructors use
(``self.telemetry = resolve(telemetry)``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.telemetry.audit import AuditLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, SpanCollector

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "current",
    "set_current",
    "use",
    "resolve",
]


class _ActivePhase:
    """One phase entry; created by :meth:`Telemetry.phase`."""

    __slots__ = ("_table", "_name", "_wall0", "_cpu0")

    def __init__(self, table: Dict[str, List[float]], name: str) -> None:
        self._table = table
        self._name = name

    def __enter__(self) -> "_ActivePhase":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        entry = self._table.get(self._name)
        if entry is None:
            self._table[self._name] = [1, wall, cpu]
        else:
            entry[0] += 1
            entry[1] += wall
            entry[2] += cpu


class Telemetry:
    """An enabled recorder: metrics + spans + phases + audit, snapshot-able."""

    enabled = True

    def __init__(self, max_spans: int = 10_000,
                 max_audit_records: int = 50_000) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanCollector(
            max_spans=max_spans,
            dropped_counter=self.metrics.counter(
                "repro_spans_dropped_total",
                "finished spans discarded past the collector cap",
            ),
        )
        self.audit = AuditLog(max_records=max_audit_records)
        #: ``{phase name: [count, wall, cpu]}``; read through snapshot().
        self._phases: Dict[str, List[float]] = {}

    def span(self, name: str, **attrs: object):
        return self.spans.span(name, **attrs)

    def phase(self, name: str) -> _ActivePhase:
        return _ActivePhase(self._phases, name)

    def start_batch(self, batch_index: int) -> None:
        """Tag subsequent audit records with the batch index."""
        self.audit.start_batch(batch_index)

    def snapshot(self, meta: Optional[dict] = None):
        """Freeze everything observed so far into a TelemetrySnapshot."""
        from repro.telemetry.snapshot import TelemetrySnapshot

        return TelemetrySnapshot.from_telemetry(self, meta=meta)


class _NullMetric:
    """Accepts any metric-style call and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def labels(self, **labels: object) -> "_NullMetric":
        return self

    def set(self, value: float, **labels: object) -> None:
        pass

    def add(self, amount: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def observe_many(self, values, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def count(self, **labels: object) -> int:
        return 0


_NULL_METRIC = _NullMetric()


class _NullRegistry:
    """Hands out the shared no-op metric for every registration."""

    __slots__ = ()

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  buckets=None) -> _NullMetric:
        return _NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


class _NullAudit:
    """No-op audit log (volumes are not tracked when disabled)."""

    __slots__ = ()
    overflowed = 0
    records: tuple = ()

    def start_batch(self, batch_index: int) -> None:
        pass

    def record(self, time: float, op: str, reason: str,
               volume: float = 1.0, **detail: object) -> None:
        pass

    def denials_by_reason(self, op=None) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


class NullTelemetry:
    """The zero-overhead disabled recorder."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = _NullRegistry()
        self.audit = _NullAudit()

    def span(self, name: str, **attrs: object):
        return NULL_SPAN

    def phase(self, name: str):
        return NULL_SPAN

    def start_batch(self, batch_index: int) -> None:
        pass

    def snapshot(self, meta: Optional[dict] = None) -> None:
        return None


#: The process-wide disabled recorder; also the default "current" one.
NULL = NullTelemetry()

TelemetryLike = Union[Telemetry, NullTelemetry]

_current: TelemetryLike = NULL


def current() -> TelemetryLike:
    """The recorder in force for code without an explicit one."""
    return _current


def set_current(telemetry: Optional[TelemetryLike]) -> TelemetryLike:
    """Install (or, with None, clear) the process-wide recorder."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL
    return previous


@contextmanager
def use(telemetry: TelemetryLike) -> Iterator[TelemetryLike]:
    """Scope ``telemetry`` as the current recorder for a with-block."""
    previous = set_current(telemetry)
    try:
        yield telemetry
    finally:
        set_current(previous)


def resolve(telemetry: Optional[TelemetryLike]) -> TelemetryLike:
    """The constructor idiom: explicit argument, else the current recorder."""
    return telemetry if telemetry is not None else _current

"""Span-based tracing: nested timed sections with wall and CPU clocks.

A span marks one named section of work (``engine.run_batch``,
``optimizer.sweep``). Spans nest: the collector keeps an active stack,
so a span opened while another is open records it as its parent, and the
exported span tree reconstructs exactly where time went. Both wall time
(``perf_counter``) and CPU time (``process_time``) are captured, so I/O
or GC stalls are distinguishable from compute.

Finished spans are kept up to ``max_spans``; beyond that they are
dropped (counted in ``overflowed`` and, when the collector was handed a
``repro_spans_dropped_total`` counter, incremented per span name so the
loss is visible in every snapshot and merge) but their durations still
feed the ``repro_span_seconds`` histogram, so aggregate timings stay
exact even on runs with millions of spans.

While a :class:`TraceContext` is active (:meth:`SpanCollector.scoped`),
span ids come from ``(seed, scope, index, ordinal)`` by a keyed 64-bit
hash instead of the sequential counter, and a span opened with an empty
stack adopts the context's ``parent_span_id``. The ordinal is the span's
creation rank within the context, and every traced layer opens its
spans in an order fixed by its configuration, so the ids — and the
whole exported tree — are the same for any ``--workers`` /
``--clients`` value, and worker-local spans re-parent under the
dispatching span when snapshots merge across the process pool.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.telemetry.metrics import Histogram

__all__ = [
    "SCOPE_BATCH",
    "SCOPE_RUN",
    "SCOPE_SERVE",
    "TraceContext",
    "SpanRecord",
    "ActiveSpan",
    "SpanCollector",
    "NULL_SPAN",
]

#: Context scopes (part of the id-derivation key, so scopes never collide).
SCOPE_RUN = "run"
SCOPE_BATCH = "batch"
SCOPE_SERVE = "serve"


@dataclass(frozen=True)
class TraceContext:
    """One deterministic id namespace; picklable, so it crosses the pool.

    ``seed`` is the run's configuration seed (``None`` hashes as the
    literal string ``"None"``: unseeded runs still get stable ids).
    ``scope``/``index`` locate the namespace (e.g. ``("batch", 3)``), and
    ``parent_span_id`` is the dispatching span that context-root spans
    re-parent under.
    """

    seed: Optional[int]
    scope: str
    index: int
    parent_span_id: Optional[int] = None

    def span_id(self, ordinal: int) -> int:
        """Deterministic 63-bit id of the ``ordinal``-th span opened here.

        Uniform over ``[1, 2^63)``: never equal to the small sequential
        ids a collector assigns outside any context, and colliding with
        each other only with birthday-bound probability.
        """
        key = f"{self.seed}/{self.scope}/{self.index}/{ordinal}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return (int.from_bytes(digest, "big") & ((1 << 63) - 1)) or 1

    def child(self, scope: str, index: int,
              parent_span_id: Optional[int]) -> "TraceContext":
        """A sub-namespace sharing this context's seed."""
        return TraceContext(self.seed, scope, index, parent_span_id)


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    attrs: Dict[str, object]
    start: float  # perf_counter at entry (run-relative once exported)
    wall: float
    cpu: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "wall": self.wall,
            "cpu": self.cpu,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanRecord":
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(None if payload.get("parent_id") is None
                       else int(payload["parent_id"])),
            name=str(payload["name"]),
            attrs=dict(payload.get("attrs", {})),
            start=float(payload["start"]),
            wall=float(payload["wall"]),
            cpu=float(payload["cpu"]),
        )


class ActiveSpan:
    """Context manager for one span; created by :meth:`SpanCollector.span`."""

    __slots__ = ("_collector", "name", "attrs", "span_id", "parent_id",
                 "_wall0", "_cpu0")

    def __init__(self, collector: "SpanCollector", name: str,
                 attrs: Dict[str, object]) -> None:
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "ActiveSpan":
        collector = self._collector
        context = collector._context
        if context is not None:
            self.span_id = context.span_id(collector._ctx_ordinal)
            collector._ctx_ordinal += 1
        else:
            self.span_id = collector._next_id
            collector._next_id += 1
        stack = collector._stack
        if stack:
            self.parent_id = stack[-1].span_id
        else:
            self.parent_id = (context.parent_span_id
                              if context is not None else None)
        stack.append(self)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        collector = self._collector
        # Pop down to (and including) this span: tolerant of a child that
        # leaked past its parent's exit via an exception.
        stack = collector._stack
        while stack:
            if stack.pop() is self:
                break
        collector._finish(self, wall, cpu)


class _NullSpan:
    """Shared no-op span and phase: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class SpanCollector:
    """Collects finished spans and aggregates their durations."""

    def __init__(self, max_spans: int = 10_000,
                 dropped_counter=None) -> None:
        self.max_spans = int(max_spans)
        self.records: List[SpanRecord] = []
        self.overflowed = 0
        #: Counter-like sink for ``repro_spans_dropped_total`` (by name);
        #: None keeps the collector usable standalone.
        self.dropped_counter = dropped_counter
        self.seconds = Histogram(
            "repro_span_seconds", "wall-clock duration of traced spans",
        )
        self._stack: List[ActiveSpan] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        self._context: Optional[TraceContext] = None
        self._ctx_ordinal = 0

    def span(self, name: str, **attrs: object) -> ActiveSpan:
        return ActiveSpan(self, name, attrs)

    @contextmanager
    def scoped(self, context: TraceContext) -> Iterator[None]:
        """Derive ids from ``context`` for spans opened in this block.

        Contexts nest (the previous one is restored on exit) and each
        activation restarts the ordinal at 0, so the ids produced inside
        a ``scoped`` block depend only on the context coordinates and
        the (deterministic) order spans are opened in — not on how many
        spans any *other* context or the sequential counter issued.
        """
        previous = (self._context, self._ctx_ordinal)
        self._context = context
        self._ctx_ordinal = 0
        try:
            yield
        finally:
            self._context, self._ctx_ordinal = previous

    def _finish(self, span: ActiveSpan, wall: float, cpu: float) -> None:
        self.seconds.observe(wall, name=span.name)
        if len(self.records) >= self.max_spans:
            self.overflowed += 1
            if self.dropped_counter is not None:
                self.dropped_counter.inc(name=span.name)
            return
        self.records.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                attrs=span.attrs,
                start=span._wall0 - self._epoch,
                wall=wall,
                cpu=cpu,
            )
        )

    # ------------------------------------------------------------------
    def children_of(self, span_id: Optional[int]) -> List[SpanRecord]:
        return [r for r in self.records if r.parent_id == span_id]

    def by_name(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def __len__(self) -> int:
        return len(self.records)

"""Named-phase accounting for the hot paths (wall + CPU + call counts).

Spans answer *where did this run spend time* at the granularity of
whole operations; the phase profiler answers it at the granularity of
the inner kernels — enumeration chunk unpack/label/accumulate, the
Monte-Carlo labelling blocks, vote-search delta scoring, the serving
sequencer — where opening a span per invocation would distort the
measurement (millions of small sections) and overflow the span cap.

A phase is a named accumulator: entering it costs two clock reads, and
the profiler keeps only ``{name: (count, wall, cpu)}``, so recording a
million phase entries costs O(1) memory. The disabled path follows the
telemetry null-recorder pattern: :data:`NULL_PROFILER` hands out one
shared no-op context manager, so instrumented kernels pay a single
attribute lookup plus an empty ``with`` block.
``scripts/check_telemetry_overhead.py`` times the live profiler against
it on the enumeration kernel (< 10%).

The live profiler rides on :class:`~repro.telemetry.recorder.Telemetry`
as ``telemetry.phases``; kernels without a plumbed recorder resolve it
through the module-level current recorder
(``repro.telemetry.recorder.current().phases``).
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = [
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "merge_phase_lists",
]


class _ActivePhase:
    """Context manager for one phase entry; created by ``profiler.phase``."""

    __slots__ = ("_profiler", "_name", "_wall0", "_cpu0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_ActivePhase":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._profiler.add(self._name, wall, cpu)


class PhaseProfiler:
    """Accumulates (count, wall, cpu) per phase name."""

    enabled = True

    __slots__ = ("_acc",)

    def __init__(self) -> None:
        self._acc: Dict[str, List[float]] = {}

    def phase(self, name: str) -> _ActivePhase:
        return _ActivePhase(self, name)

    def add(self, name: str, wall: float, cpu: float,
            count: int = 1) -> None:
        entry = self._acc.get(name)
        if entry is None:
            self._acc[name] = [float(count), wall, cpu]
        else:
            entry[0] += count
            entry[1] += wall
            entry[2] += cpu

    def snapshot(self) -> List[Dict[str, object]]:
        """Plain-data phase table, sorted by name (deterministic)."""
        return [
            {"name": name, "count": int(entry[0]),
             "wall": entry[1], "cpu": entry[2]}
            for name, entry in sorted(self._acc.items())
        ]

    def reset(self) -> None:
        self._acc.clear()

    def __len__(self) -> int:
        return len(self._acc)


class _NullPhase:
    """Shared no-op phase: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullProfiler:
    """The zero-overhead disabled profiler."""

    enabled = False

    __slots__ = ()

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def add(self, name: str, wall: float, cpu: float, count: int = 1) -> None:
        pass

    def snapshot(self) -> List[Dict[str, object]]:
        return []

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The process-wide disabled profiler (NullTelemetry.phases).
NULL_PROFILER = NullProfiler()


def merge_phase_lists(phase_lists) -> List[Dict[str, object]]:
    """Sum plain-data phase tables by name (snapshot merging).

    Counts, wall, and cpu add; the result is sorted by name, so merging
    per-batch snapshots in batch order is deterministic.
    """
    acc: Dict[str, List[float]] = {}
    for phases in phase_lists:
        for entry in phases:
            name = str(entry["name"])
            slot = acc.get(name)
            if slot is None:
                acc[name] = [float(entry["count"]), float(entry["wall"]),
                             float(entry["cpu"])]
            else:
                slot[0] += float(entry["count"])
                slot[1] += float(entry["wall"])
                slot[2] += float(entry["cpu"])
    return [
        {"name": name, "count": int(slot[0]), "wall": slot[1], "cpu": slot[2]}
        for name, slot in sorted(acc.items())
    ]

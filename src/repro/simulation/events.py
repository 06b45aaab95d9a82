"""Event primitives for the discrete-event simulator.

Events are totally ordered by ``(time, sequence)``; the monotone sequence
number makes simultaneous events deterministic, which matters because the
engine's results must be exactly reproducible from a seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Iterator, Optional

from repro.errors import SimulationError

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "SOURCE_STOCHASTIC",
    "SOURCE_CHAOS",
]


class EventKind(Enum):
    """The kinds of instantaneous events in the paper's system model."""

    SITE_FAIL = "site_fail"
    SITE_REPAIR = "site_repair"
    LINK_FAIL = "link_fail"
    LINK_REPAIR = "link_repair"
    #: Used only by trace replay / tests; the engine accounts for accesses
    #: per epoch rather than as individual queue entries.
    ACCESS = "access"

    @property
    def is_topology_change(self) -> bool:
        return self is not EventKind.ACCESS

    @property
    def is_failure(self) -> bool:
        return self in (EventKind.SITE_FAIL, EventKind.LINK_FAIL)

    @property
    def is_repair(self) -> bool:
        return self in (EventKind.SITE_REPAIR, EventKind.LINK_REPAIR)


#: Event provenance tags. Stochastic events come from the exponential
#: failure/repair processes and trigger follow-up scheduling; chaos events
#: come from a scripted fault schedule and are applied verbatim (the
#: schedule owns the component's whole future, including its repairs).
SOURCE_STOCHASTIC = "stochastic"
SOURCE_CHAOS = "chaos"


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled event.

    ``target`` is a site id for site events, a link id for link events,
    and the submitting site for access events. Ordering is by time, then
    insertion sequence. ``source`` records provenance (stochastic process
    vs. injected chaos) and does not participate in ordering.
    """

    time: float
    sequence: int
    kind: EventKind = field(compare=False)
    target: int = field(compare=False)
    source: str = field(compare=False, default=SOURCE_STOCHASTIC)

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise SimulationError(f"event time must be non-negative, got {self.time}")
        if self.target < 0:
            raise SimulationError(f"event target must be non-negative, got {self.target}")

    @property
    def is_chaos(self) -> bool:
        return self.source == SOURCE_CHAOS


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Heap entries are ``(time, sequence, event)`` tuples: the sequence is
    unique, so ``heapq`` orders them by C tuple comparison and never
    reaches the event's own (Python) ``__lt__``.
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = count()

    def schedule(
        self,
        time: float,
        kind: EventKind,
        target: int,
        source: str = SOURCE_STOCHASTIC,
    ) -> Event:
        """Create and enqueue an event; returns it."""
        event = Event(
            time=time, sequence=next(self._counter), kind=kind, target=target,
            source=source,
        )
        heapq.heappush(self._heap, (event.time, event.sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self._heap:
            raise SimulationError("peek into an empty event queue")
        return self._heap[0][2]

    def peek_time(self) -> float:
        if not self._heap:
            raise SimulationError("peek into an empty event queue")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain_until(self, horizon: float) -> Iterator[Event]:
        """Pop every event with ``time <= horizon`` in order."""
        while self._heap and self._heap[0][0] <= horizon:
            yield heapq.heappop(self._heap)[2]

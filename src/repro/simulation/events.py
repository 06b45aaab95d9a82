"""Event primitives for the discrete-event simulator.

Events are totally ordered by ``(time, sequence)``; the monotone sequence
number makes simultaneous events deterministic, which matters because the
engine's results must be exactly reproducible from a seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from itertools import count, repeat
from typing import Iterator, Sequence

from repro.errors import SimulationError

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "EVENT_KINDS",
    "appliers",
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


#: ``EventKind`` by *kind code*, the small int heap entries and generated
#: history rows carry instead of the enum: ``code ^ 1`` is the opposite
#: transition of the same component, 2 and 3 are a link's, 4 is ``ACCESS``.
EVENT_KINDS = tuple(EventKind)


def appliers(network) -> tuple:
    """``network``'s method that applies a topology event, by kind code."""
    return (network.fail_site, network.repair_site,
            network.fail_link, network.repair_link)


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
    """A deterministic min-heap of events.

    Heap entries are ``(time, sequence, kind code, target, source,
    event)`` tuples: the sequence is unique, so ``heapq`` orders them by
    C tuple comparison and never looks past it. ``event`` is ``None``
    (built if popped) unless :meth:`schedule` made the entry;
    :meth:`FailureProcesses.history` works on ``_heap`` and ``_counter``.
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
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
        heapq.heappush(self._heap, (
            event.time, event.sequence, EVENT_KINDS.index(kind), target, source, event))
        return event

    def schedule_many(self, times: Sequence[float], kind_codes: Sequence[int],
                      targets: Sequence[int], source: str = SOURCE_STOCHASTIC) -> None:
        """One :meth:`schedule` per element, without building the events."""
        if len(times) and (min(times) < 0.0 or min(targets) < 0):
            raise SimulationError("event times and targets must be non-negative")
        # ``times`` leads the zip, so the counter is drawn len(times) times.
        self._heap.extend(zip(
            times, self._counter, kind_codes, targets, repeat(source), repeat(None)))
        heapq.heapify(self._heap)

    @staticmethod
    def _event(entry: tuple) -> Event:
        time, sequence, code, target, source, event = entry
        return event or Event(time, sequence, EVENT_KINDS[code], target, source)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return self._event(heapq.heappop(self._heap))

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self._heap:
            raise SimulationError("peek into an empty event queue")
        return self._event(self._heap[0])

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
            yield self._event(heapq.heappop(self._heap))

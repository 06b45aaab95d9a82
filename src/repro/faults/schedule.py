"""Fault schedules: scripted topology events as data.

A :class:`FaultSchedule` is a validated, time-sorted tuple of
``(time, EventKind, target)`` topology events: exactly *which* sites and
links go down, *when*, and when (if ever) they come back. The engine
primes it into every batch alongside the stochastic
:class:`~repro.simulation.processes.FailureProcesses`; every component an
event names is *owned* by the schedule and leaves the stochastic fallible
set, so a scripted partition cannot be half-healed by a random repair.
The serving sequencer pushes the same events onto its heap.

All times are absolute simulated time from the start of the batch
(warm-up included). Nothing here draws randomness: a schedule is
reproducible because it is data.

:func:`partition`, :func:`flap`, :func:`cascade` and :func:`correlated`
build the event lists of the one scenario table,
:func:`repro.serving.scenarios.serving_schedule`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.simulation.events import SOURCE_CHAOS, EventKind, EventQueue
from repro.topology.model import Topology

__all__ = ["FaultSchedule", "partition", "flap", "cascade", "correlated"]

#: One scheduled fault: (absolute time, event kind, site or link id).
ScheduledFault = Tuple[float, EventKind, int]

_SITE_KINDS = (EventKind.SITE_FAIL, EventKind.SITE_REPAIR)


class FaultSchedule:
    """A validated, time-sorted tuple of scripted topology events.

    Every event is a ``(time, kind, target)`` triple with a non-negative
    time and a topology kind; :meth:`all_events` checks each target
    against a topology. The sort is stable, so events at one instant keep
    the order they were given in.
    """

    def __init__(self, events: Iterable[ScheduledFault] = ()) -> None:
        checked: List[ScheduledFault] = []
        for event in events:
            try:
                time, kind, target = event
            except (TypeError, ValueError):
                raise FaultInjectionError(
                    f"a fault is a (time, kind, target) triple, got {event!r}"
                ) from None
            if not isinstance(kind, EventKind) or not kind.is_topology_change:
                raise FaultInjectionError(
                    f"fault schedules may only inject topology events, got {kind!r}"
                )
            time = float(time)
            if not time >= 0.0:
                raise FaultInjectionError(
                    f"fault times must be non-negative, got {time}")
            checked.append((time, kind, int(target)))
        checked.sort(key=lambda fault: fault[0])
        self.events: Tuple[ScheduledFault, ...] = tuple(checked)

    def all_events(self, topology: Topology) -> List[ScheduledFault]:
        """Every event, time-ordered, each target checked against ``topology``."""
        for _, kind, target in self.events:
            what, limit = (
                ("site", topology.n_sites) if kind in _SITE_KINDS
                else ("link", topology.n_links)
            )
            if not 0 <= target < limit:
                raise FaultInjectionError(
                    f"{kind.value} names {what} {target}, outside 0..{limit - 1}"
                )
        return list(self.events)

    def owned_components(self, topology: Topology) -> Tuple[List[int], List[int]]:
        """(site ids, link ids) whose future the schedule scripts.

        The engine removes these from the stochastic fallible masks so
        random repairs cannot undo scripted faults mid-scenario.
        """
        sites, links = set(), set()
        for _, kind, target in self.all_events(topology):
            (sites if kind in _SITE_KINDS else links).add(target)
        return sorted(sites), sorted(links)

    def prime(self, queue: EventQueue, topology: Topology) -> int:
        """Schedule every event into ``queue``, tagged as chaos.

        Returns the number of events scheduled.
        """
        events = self.all_events(topology)
        for time, kind, target in events:
            queue.schedule(time, kind, target, source=SOURCE_CHAOS)
        return len(events)

    def describe(self) -> str:
        """One line: event count, time span, the sites and how many links."""
        if not self.events:
            return "no faults"
        sites = sorted({t for _, kind, t in self.events if kind in _SITE_KINDS})
        n_links = len({t for _, kind, t in self.events if kind not in _SITE_KINDS})
        parts = [f"{len(self.events)} events at t={self.events[0][0]:g}"
                 f"..{self.events[-1][0]:g}"]
        if sites:
            parts.append(f"sites {sites}")
        if n_links:
            parts.append(f"{n_links} links")
        return ", ".join(parts)


def _check_heal(heal_at: Optional[float], last_failure: float) -> None:
    if heal_at is not None and heal_at <= last_failure:
        raise FaultInjectionError(
            f"heal time {heal_at} must come after the last failure at {last_failure}"
        )


def partition(topology: Topology, at: float, groups: Sequence[Sequence[int]],
              heal_at: Optional[float] = None) -> List[ScheduledFault]:
    """Cut every link between the site ``groups`` at ``at``; heal at ``heal_at``.

    Sites named in no group form one implicit "rest" group, so
    ``groups=[[0, 1, 2]]`` splits those three sites off from everyone
    else: the primitive behind the paper's section-2.2 merge/split
    scenarios.
    """
    group_of = {}
    for index, group in enumerate(groups):
        for site in group:
            site = int(site)
            if not 0 <= site < topology.n_sites:
                raise FaultInjectionError(
                    f"partition names site {site}, outside 0..{topology.n_sites - 1}")
            if site in group_of:
                raise FaultInjectionError("partition groups must be disjoint")
            group_of[site] = index
    if not group_of:
        raise FaultInjectionError("a partition needs at least one site")
    _check_heal(heal_at, at)
    rest = len(groups)
    cut = [
        link_id for link_id, link in enumerate(topology.links)
        if group_of.get(link.a, rest) != group_of.get(link.b, rest)
    ]
    events = [(at, EventKind.LINK_FAIL, link) for link in cut]
    if heal_at is not None:
        events += [(heal_at, EventKind.LINK_REPAIR, link) for link in cut]
    return events


def flap(site: int, period: float, until: float, down_fraction: float = 0.5,
         start: float = 0.0) -> List[ScheduledFault]:
    """``site`` cycles down/up every ``period`` from ``start`` until ``until``.

    Each cycle spends ``down_fraction * period`` down, then comes back
    up: the classic stressor for version propagation, since the site
    keeps rejoining components that moved on without it.
    """
    if not period > 0.0:
        raise FaultInjectionError(f"flap period must be positive, got {period}")
    if not 0.0 < down_fraction < 1.0:
        raise FaultInjectionError(
            f"down_fraction must be strictly inside (0, 1), got {down_fraction}")
    if not until > start:
        raise FaultInjectionError(f"flap end {until} must come after start {start}")
    events: List[ScheduledFault] = []
    down_time = down_fraction * period
    t = start
    while t < until:
        events.append((t, EventKind.SITE_FAIL, site))
        events.append((t + down_time, EventKind.SITE_REPAIR, site))
        t += period
    return events


def cascade(start: float, sites: Sequence[int], delay: float,
            heal_at: Optional[float] = None) -> List[ScheduledFault]:
    """``sites`` fail one after another, ``delay`` apart, from ``start``.

    A rolling outage (overload shedding, a bad deploy sweeping a fleet);
    every victim is repaired at ``heal_at`` when given.
    """
    if not sites:
        raise FaultInjectionError("a cascade needs at least one site")
    if not delay >= 0.0:
        raise FaultInjectionError(f"cascade delay must be non-negative, got {delay}")
    _check_heal(heal_at, start + delay * (len(sites) - 1))
    events = [(start + k * delay, EventKind.SITE_FAIL, site)
              for k, site in enumerate(sites)]
    if heal_at is not None:
        events += [(heal_at, EventKind.SITE_REPAIR, site) for site in sites]
    return events


def correlated(sites: Sequence[int], at_times: Sequence[float],
               down_time: float) -> List[ScheduledFault]:
    """A shared-risk group: ``sites`` fail together at each of ``at_times``.

    A rack power feed or an availability zone: one underlying fault takes
    every member down at once and holds it down for ``down_time``.
    """
    if not sites:
        raise FaultInjectionError("a correlated group needs at least one site")
    if not at_times:
        raise FaultInjectionError("a correlated group needs at least one time")
    if not down_time > 0.0:
        raise FaultInjectionError(f"down_time must be positive, got {down_time}")
    events: List[ScheduledFault] = []
    for at in sorted(at_times):
        for site in sites:
            events.append((at, EventKind.SITE_FAIL, site))
            events.append((at + down_time, EventKind.SITE_REPAIR, site))
    return events

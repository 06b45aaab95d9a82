"""The scenario table: named fault schedules scaled to a horizon.

``repro serve --scenario`` and ``repro chaos --scenario`` both take their
choices from :data:`SERVE_SCENARIOS` and their schedules from
:func:`serving_schedule`. Every scenario is fully scripted: occurrence
times are fixed fractions of the horizon, so a seeded run, and the golden
corpus entry locked on one, is exactly reproducible.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.faults.schedule import FaultSchedule, cascade, correlated, flap, partition
from repro.topology.model import Topology

__all__ = ["SERVE_SCENARIOS", "serving_schedule"]

SERVE_SCENARIOS = ("none", "correlated", "partition", "flap", "cascade", "mixed")


def serving_schedule(scenario: str, topology: Topology,
                     horizon: float) -> FaultSchedule:
    """The fault schedule named ``scenario`` over ``[0, horizon)``."""
    if horizon <= 0:
        raise ReproError(f"horizon must be positive, got {horizon}")
    if scenario not in SERVE_SCENARIOS:
        raise ReproError(
            f"unknown serving scenario {scenario!r}; choose from {SERVE_SCENARIOS}")
    if scenario == "none":
        return FaultSchedule()
    n = topology.n_sites
    half = list(range(n // 2))
    # A shared-risk group (rack / power feed): a handful of sites that
    # fail together, repeatedly, holding the degraded regime long enough
    # for the online estimator to see it and react.
    group = list(range(max(2, n // 6)))
    h = horizon
    if scenario == "correlated":
        events = correlated(group, [0.15 * h, 0.45 * h, 0.72 * h],
                            down_time=0.18 * h)
    elif scenario == "partition":
        # Split half the sites off, merge back, then split differently:
        # the section-2.2 merge/split stressor.
        events = (partition(topology, 0.2 * h, [half], heal_at=0.45 * h)
                  + partition(topology, 0.55 * h, [half[::2]], heal_at=0.8 * h))
    elif scenario == "flap":
        events = (flap(0, period=h / 10.0, until=0.9 * h)
                  + flap(1 % n, period=h / 7.0, until=0.9 * h))
    elif scenario == "cascade":
        events = cascade(0.2 * h, half[:3] or [0], delay=h / 20.0,
                         heal_at=0.7 * h)
    else:  # mixed
        events = (partition(topology, 0.2 * h, [half], heal_at=0.4 * h)
                  + correlated(group, [0.5 * h, 0.75 * h], down_time=0.15 * h)
                  + flap(n - 1, period=h / 8.0, until=0.9 * h))
    return FaultSchedule(events)

"""What one failure/repair event costs, counted instead of timed.

``paper`` scale is ≈ 30 k events a batch on a ring and ≈ 770 k on the fully
connected topology, so the fixed cost of one event is what that scale pays
for (ROADMAP item 2). The shared runners' clocks cannot gate it; a count
can: the number of function calls ``cProfile`` sees (Python and built-in
alike) is a pure function of the code and the seed. The *marginal* count —
the difference between an ``L``- and a ``2L``-access batch over the
difference in events — cancels priming, set-up and the final flush.

The per-event ``EventQueue.pop`` → ``_apply`` → ``schedule_repair`` →
``Event`` → ``heappush`` → ``trace.record`` round trip read 50.0 calls per
event on the complete graph and 75.0 on topology 2; with the history
generated ahead of the accounting the same measurement reads 32.0 and 57.6.
Topology 2 no longer drives a tracker at all: its epochs are labelled a
chunk at a time, and what is left per event is the history's generation,
4.7 calls. The ceilings sit ≈ 15 % above the counts: room for a NumPy or
CPython that counts a helper more, not for the per-event machinery to come
back.

The same profiles gate the disabled recorder. With the null recorder every
instrumentation site in the epoch loop is one ``instruments is None`` test,
so no function defined under ``repro/telemetry/`` may be called per
event: the batch makes a fixed seven such calls (two spans
opened and closed, one batch start) whatever its length, so the marginal
count is exactly 0.
"""

import cProfile
import pstats
from functools import lru_cache
from pathlib import Path

import pytest

from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.topology.generators import paper_topology

#: Where the recorder's code lives; a call into a function defined under
#: it is an instrumentation cost.
RECORDER_DIRS = ("repro/telemetry/",)


@lru_cache(maxsize=None)
def profiled_batch(chords, accesses):
    """``(profiler calls, recorder calls, events)`` of one stationary
    ``expected`` batch on ``paper_topology(chords)``."""
    topology = paper_topology(chords)
    config = SimulationConfig.paper_like(
        topology, alpha=0.5, warmup_accesses=0.0, accesses_per_batch=accesses,
        n_batches=1, initial_state="stationary", seed=1, accounting="expected",
    )
    engine = SimulationEngine(config, MajorityConsensusProtocol(topology.total_votes))
    assert not engine.telemetry.enabled
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        batch = engine.run_batch(0)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    recorder_calls = sum(
        calls for (filename, _, _), (_, calls, *_) in stats.stats.items()
        if any(part in Path(filename).as_posix() for part in RECORDER_DIRS)
    )
    return stats.total_calls, recorder_calls, batch.n_events


@pytest.mark.parametrize("chords,accesses,ceiling", [
    (4949, 2_000.0, 37.0),   # reads 32.0 (parent: 50.0)
    (2, 20_000.0, 5.4),      # reads 4.7 (on the tracker: 57.6)
])
def test_marginal_calls_per_event(chords, accesses, ceiling):
    calls, _, events = profiled_batch(chords, accesses)
    calls_2, _, events_2 = profiled_batch(chords, 2 * accesses)
    assert events_2 - events > 500
    per_event = (calls_2 - calls) / (events_2 - events)
    assert per_event <= ceiling, f"{per_event:.1f} profiler calls per event"


@pytest.mark.parametrize("chords,accesses", [(4949, 2_000.0), (2, 20_000.0)])
def test_null_recorder_costs_no_call_per_event(chords, accesses):
    _, recorder, events = profiled_batch(chords, accesses)
    _, recorder_2, events_2 = profiled_batch(chords, 2 * accesses)
    assert events_2 - events > 500
    assert recorder == 7, (
        f"{recorder} recorder calls a batch; expected the fixed seven")
    assert recorder_2 == recorder, (
        f"{(recorder_2 - recorder) / (events_2 - events):.3f} recorder calls "
        "per event with the null recorder")

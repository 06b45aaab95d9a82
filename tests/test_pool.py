"""``repro.pool.fan_out``: the one process-pool fan-out.

The bitwise ``n_workers`` invariance of the three callers is gated where
it always was (``tests/simulation/test_parallel.py``,
``tests/sharding/test_runner.py``, ``tests/analytic/test_montecarlo.py``,
``tests/tracing/test_reparenting.py``); this file pins the helper's own
contract: item order, ``shared`` sent per worker rather than per item,
the worker-count clamp, a raising task, a dying worker.
"""

import glob
import os
import time
from pathlib import Path

import pytest

import repro.pool
from repro.errors import FanOutError, ReproError, ShardingError
from repro.experiments.paper import TEST_SCALE
from repro.pool import fan_out
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import run_simulation

pytestmark = pytest.mark.slow


# Tasks are module-level: a worker imports them by name.

def _scaled(shared, item):
    return shared * item


def _first_waits_for_second(shared, item):
    """Item 0 returns only after item 1 has finished."""
    marker = Path(shared) / "second-done"
    if item == 1:
        marker.touch()
        return item, time.monotonic()
    deadline = time.monotonic() + 60.0
    while not marker.exists():
        assert time.monotonic() < deadline, "item 1 never ran beside item 0"
        time.sleep(0.01)
    return item, time.monotonic()


class _CountsPickles:
    """Counts, in the dispatching process, how often it is pickled."""

    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return (_CountsPickles, ())


def _ignore_shared(shared, item):
    return item


def _raise_typed(shared, item):
    if item == shared:
        raise ShardingError(f"item {item} refused")
    return item


def _die(shared, item):
    if item == shared:
        os._exit(1)
    return item


class TestFanOut:
    def test_matches_the_list_comprehension(self):
        assert fan_out(_scaled, 3, range(7), 2) == [3 * i for i in range(7)]

    def test_no_items_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was created for zero items")

        monkeypatch.setattr(repro.pool, "ProcessPoolExecutor", refuse)
        assert fan_out(_scaled, 3, [], 4) == []

    def test_results_in_item_order_not_finish_order(self, tmp_path):
        results = fan_out(_first_waits_for_second, str(tmp_path), [0, 1], 2)
        assert [item for item, _ in results] == [0, 1]
        finished = [stamp for _, stamp in results]
        assert finished[1] < finished[0]

    def test_shared_is_pickled_per_worker_not_per_item(self):
        _CountsPickles.pickled = 0
        n_workers, items = 2, list(range(8))
        assert fan_out(_ignore_shared, _CountsPickles(), items, n_workers) == items
        # Once per worker where workers are spawned, never where they are
        # forked (they inherit it); once per item on no platform.
        assert _CountsPickles.pickled <= n_workers < len(items)

    def test_worker_count_clamps_to_the_item_count(self, monkeypatch):
        seen = []
        real = repro.pool.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            seen.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(repro.pool, "ProcessPoolExecutor", recording)
        assert fan_out(_scaled, 2, [1, 2], 16) == [2, 4]
        assert seen == [2]


class TestFailures:
    def test_a_raising_task_arrives_with_its_type(self):
        with pytest.raises(ShardingError, match="item 2 refused"):
            fan_out(_raise_typed, 2, range(4), 2)

    def test_a_dead_worker_is_a_typed_error_and_leaves_no_segment(self):
        with pytest.raises(FanOutError, match="_die") as excinfo:
            fan_out(_die, 1, range(4), 2)
        assert isinstance(excinfo.value, ReproError)
        assert "lost a worker" in str(excinfo.value)
        assert glob.glob("/dev/shm/repro_*") == []


class _DiesAfter(MajorityConsensusProtocol):
    """Dies at a batch's ``limit``-th topology event.

    The count restarts in ``reset``, which the engine calls per batch, so
    which batches die depends on ``(seed, batch_index)`` alone and not on
    which worker's copy of the protocol ran them.
    """

    def __init__(self, total_votes, limit):
        super().__init__(total_votes)
        self.limit = limit
        self._events = 0

    def reset(self):
        super().reset()
        self._events = 0

    def on_network_change(self, tracker):
        self._events += 1
        if self._events >= self.limit:
            raise RuntimeError("injected protocol crash")
        return super().on_network_change(tracker)


class TestQuarantineAcrossThePool:
    """A batch that dies in a worker is quarantined as in a serial run."""

    def test_keep_going_quarantines_the_same_batches(self):
        config = TEST_SCALE.config(2, alpha=0.5, seed=41)
        total = config.topology.total_votes
        calls = sorted(
            self._calls_per_batch(config, total, index)
            for index in range(config.n_batches)
        )
        assert calls[0] < calls[-1], "pick a seed whose batches differ"
        # The busiest batch dies, the quietest survives.
        limit = calls[-1]
        serial = run_simulation(config, _DiesAfter(total, limit),
                                fail_fast=False)
        assert serial.quarantined and serial.batches

        fanned = run_simulation(config, _DiesAfter(total, limit),
                                fail_fast=False, n_workers=2)
        assert ([q.batch_index for q in fanned.quarantined]
                == [q.batch_index for q in serial.quarantined])
        assert ([(q.error_type, q.message, q.sim_time)
                 for q in fanned.quarantined]
                == [(q.error_type, q.message, q.sim_time)
                    for q in serial.quarantined])
        assert fanned.availability.values == serial.availability.values

    @staticmethod
    def _calls_per_batch(config, total, index):
        counter = _DiesAfter(total, limit=float("inf"))
        SimulationEngine(config, counter).run_batch(index)
        return counter._events

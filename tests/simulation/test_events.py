"""Unit tests for the event queue primitives."""

import pytest

from repro.errors import SimulationError
from repro.simulation.events import Event, EventKind, EventQueue


class TestEventKind:
    def test_classification(self):
        assert EventKind.SITE_FAIL.is_failure
        assert EventKind.LINK_FAIL.is_failure
        assert not EventKind.SITE_REPAIR.is_failure
        assert not EventKind.ACCESS.is_failure
        assert EventKind.SITE_FAIL.is_topology_change
        assert not EventKind.ACCESS.is_topology_change


class TestEvent:
    def test_validation(self):
        with pytest.raises(SimulationError):
            Event(-1.0, 0, EventKind.SITE_FAIL, 0)
        with pytest.raises(SimulationError):
            Event(1.0, 0, EventKind.SITE_FAIL, -2)

    def test_ordering_by_time_then_sequence(self):
        early = Event(1.0, 5, EventKind.SITE_FAIL, 0)
        late = Event(2.0, 1, EventKind.SITE_FAIL, 0)
        tie_a = Event(3.0, 1, EventKind.SITE_FAIL, 0)
        tie_b = Event(3.0, 2, EventKind.LINK_FAIL, 0)
        assert early < late
        assert tie_a < tie_b


class TestEventQueue:
    def test_pop_order(self):
        q = EventQueue()
        q.schedule(3.0, EventKind.SITE_FAIL, 1)
        q.schedule(1.0, EventKind.LINK_FAIL, 2)
        q.schedule(2.0, EventKind.SITE_REPAIR, 3)
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_simultaneous_events_fifo(self):
        q = EventQueue()
        first = q.schedule(5.0, EventKind.SITE_FAIL, 1)
        second = q.schedule(5.0, EventKind.SITE_FAIL, 2)
        assert q.pop() is first
        assert q.pop() is second

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.schedule(1.0, EventKind.SITE_FAIL, 0)
        assert q.peek_time() == 1.0
        assert len(q) == 1

    def test_empty_queue_errors(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.pop()
        with pytest.raises(SimulationError):
            q.peek()

    def test_bool_and_len(self):
        q = EventQueue()
        assert not q
        q.schedule(1.0, EventKind.SITE_FAIL, 0)
        assert q and len(q) == 1

    def test_drain_until(self):
        q = EventQueue()
        for t in (0.5, 1.5, 2.5):
            q.schedule(t, EventKind.SITE_FAIL, 0)
        drained = list(q.drain_until(2.0))
        assert [e.time for e in drained] == [0.5, 1.5]
        assert len(q) == 1

    def test_equal_time_events_pop_in_insertion_order(self):
        """Ties are broken by the schedule sequence, never by kind or target."""
        q = EventQueue()
        kinds = list(EventKind)
        scheduled = [
            q.schedule(2.0 if i % 3 else 1.0, kinds[(7 * i) % len(kinds)], 50 - i)
            for i in range(50)
        ]
        popped = [q.pop() for _ in range(len(scheduled))]
        assert popped == sorted(scheduled)
        for time in (1.0, 2.0):
            tied = [e for e in popped if e.time == time]
            assert tied == [e for e in scheduled if e.time == time]

    def test_drain_until_order_equals_repeated_pop(self):
        times = [3.0, 1.0, 2.0, 1.0, 4.0, 2.0, 0.5, 3.0]
        drained_q, popped_q = EventQueue(), EventQueue()
        for target, t in enumerate(times):
            drained_q.schedule(t, EventKind.LINK_REPAIR, target)
            popped_q.schedule(t, EventKind.LINK_REPAIR, target)
        drained = list(drained_q.drain_until(3.0))
        popped = []
        while popped_q and popped_q.peek_time() <= 3.0:
            popped.append(popped_q.pop())
        assert drained == popped
        assert [e.target for e in drained] == [6, 1, 3, 2, 5, 0, 7]
        assert len(drained_q) == len(popped_q) == 1 and drained_q.peek().time == 4.0

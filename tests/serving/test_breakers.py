"""Tests for the per-site circuit breakers.

The two breaker settings are module constants; the tests monkeypatch them.
"""

import pytest

from repro.errors import ReproError
from repro.serving import breakers
from repro.serving.breakers import BreakerBoard, BreakerState, CircuitBreaker


@pytest.fixture
def settings(monkeypatch):
    def set_breaker_constants(threshold=3, cooldown=10.0):
        monkeypatch.setattr(breakers, "FAILURE_THRESHOLD", threshold)
        monkeypatch.setattr(breakers, "COOLDOWN", cooldown)

    return set_breaker_constants


@pytest.fixture
def _breaker(settings):
    def make(threshold=3, cooldown=10.0):
        settings(threshold, cooldown)
        return CircuitBreaker()

    return make


class TestStateMachine:
    def test_starts_closed_and_allows(self, _breaker):
        b = _breaker()
        assert b.state is BreakerState.CLOSED
        assert b.allow(0.0)

    def test_trips_after_threshold_consecutive_failures(self, _breaker):
        b = _breaker(threshold=3)
        b.on_failure(1.0)
        b.on_failure(2.0)
        assert b.state is BreakerState.CLOSED
        b.on_failure(3.0)
        assert b.state is BreakerState.OPEN
        assert b.trips == 1
        assert not b.allow(3.5)

    def test_success_resets_failure_count(self, _breaker):
        b = _breaker(threshold=3)
        b.on_failure(1.0)
        b.on_failure(2.0)
        b.on_success()
        b.on_failure(3.0)
        b.on_failure(4.0)
        assert b.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_single_probe(self, _breaker):
        b = _breaker(threshold=1, cooldown=10.0)
        b.on_failure(0.0)
        assert not b.allow(5.0)
        assert b.allow(10.0)          # the probe
        assert b.state is BreakerState.HALF_OPEN
        assert not b.allow(10.1)      # only one probe at a time

    def test_probe_success_closes(self, _breaker):
        b = _breaker(threshold=1, cooldown=10.0)
        b.on_failure(0.0)
        assert b.allow(10.0)
        b.on_success()
        assert b.state is BreakerState.CLOSED
        assert b.allow(10.5)

    def test_probe_failure_reopens_for_full_cooldown(self, _breaker):
        b = _breaker(threshold=5, cooldown=10.0)
        for t in range(5):
            b.on_failure(float(t))
        assert b.allow(14.0)
        b.on_failure(14.0)
        assert b.state is BreakerState.OPEN
        assert b.trips == 2
        assert not b.allow(20.0)
        assert b.allow(24.0)


class TestBoard:
    def test_breakers_are_independent(self, settings):
        settings(threshold=1)
        board = BreakerBoard(3)
        board.on_failure(1, 0.0)
        assert board.allow(0, 0.5)
        assert not board.allow(1, 0.5)
        assert [b.state for b in board.breakers] == [
            BreakerState.CLOSED, BreakerState.OPEN, BreakerState.CLOSED]
        assert board.rejections == 1
        assert board.trips == 1

    def test_states_tally(self, settings):
        settings(threshold=1)
        board = BreakerBoard(4)
        board.on_failure(0, 0.0)
        board.on_failure(3, 0.0)
        assert board.states() == {"open": 2, "closed": 2}

    def test_rejects_empty_board(self):
        with pytest.raises(ReproError):
            BreakerBoard(0)


class TestShippedSettings:
    def test_eight_failures_trip_and_twenty_seconds_cool_down(self):
        b = CircuitBreaker()
        for t in range(7):
            b.on_failure(float(t))
        assert b.state is BreakerState.CLOSED
        b.on_failure(7.0)
        assert b.state is BreakerState.OPEN
        assert not b.allow(26.9)
        assert b.allow(27.0)

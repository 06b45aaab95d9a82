"""Tests for the per-site circuit breakers."""

import pytest

from repro.errors import ReproError
from repro.serving.breakers import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
)


def _breaker(threshold=3, cooldown=10.0):
    return CircuitBreaker(
        CircuitBreakerConfig(failure_threshold=threshold, cooldown=cooldown)
    )


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        b = _breaker()
        assert b.state is BreakerState.CLOSED
        assert b.allow(0.0)

    def test_trips_after_threshold_consecutive_failures(self):
        b = _breaker(threshold=3)
        b.on_failure(1.0)
        b.on_failure(2.0)
        assert b.state is BreakerState.CLOSED
        b.on_failure(3.0)
        assert b.state is BreakerState.OPEN
        assert b.trips == 1
        assert not b.allow(3.5)

    def test_success_resets_failure_count(self):
        b = _breaker(threshold=3)
        b.on_failure(1.0)
        b.on_failure(2.0)
        b.on_success()
        b.on_failure(3.0)
        b.on_failure(4.0)
        assert b.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_single_probe(self):
        b = _breaker(threshold=1, cooldown=10.0)
        b.on_failure(0.0)
        assert not b.allow(5.0)
        assert b.allow(10.0)          # the probe
        assert b.state is BreakerState.HALF_OPEN
        assert not b.allow(10.1)      # only one probe at a time

    def test_probe_success_closes(self):
        b = _breaker(threshold=1, cooldown=10.0)
        b.on_failure(0.0)
        assert b.allow(10.0)
        b.on_success()
        assert b.state is BreakerState.CLOSED
        assert b.allow(10.5)

    def test_probe_failure_reopens_for_full_cooldown(self):
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
    def test_breakers_are_independent(self):
        board = BreakerBoard(3, CircuitBreakerConfig(failure_threshold=1))
        board.on_failure(1, 0.0)
        assert board.allow(0, 0.5)
        assert not board.allow(1, 0.5)
        assert board.open_sites() == [1]
        assert board.rejections == 1
        assert board.trips == 1

    def test_states_tally(self):
        board = BreakerBoard(4, CircuitBreakerConfig(failure_threshold=1))
        board.on_failure(0, 0.0)
        board.on_failure(3, 0.0)
        assert board.states() == {"open": 2, "closed": 2}

    def test_rejects_empty_board(self):
        with pytest.raises(ReproError):
            BreakerBoard(0, CircuitBreakerConfig())


class TestConfigValidation:
    def test_rejects_zero_threshold(self):
        with pytest.raises(ReproError):
            CircuitBreakerConfig(failure_threshold=0)

    def test_rejects_nonpositive_cooldown(self):
        with pytest.raises(ReproError):
            CircuitBreakerConfig(cooldown=0.0)

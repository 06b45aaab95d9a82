"""Per-site circuit breakers for the serving layer.

A site whose accesses keep failing (its component lost quorum, or the
site itself is down) should stop absorbing retry budget: the breaker
*opens* after :data:`FAILURE_THRESHOLD` consecutive failures and
fast-fails subsequent requests for :data:`COOLDOWN` simulated seconds.
After the cooldown one probe request is let through (*half-open*);
success closes the breaker, failure re-opens it for another cooldown.

All state transitions run on simulated time inside the single-sequencer
engine, so breaker behaviour is deterministic for a fixed seed. The two
settings are module constants; a test that needs another value
monkeypatches them.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List

from repro.errors import ReproError

__all__ = ["BreakerState", "CircuitBreaker", "BreakerBoard"]

#: Consecutive failures that open a site's breaker.
FAILURE_THRESHOLD = 8
#: Simulated seconds an open breaker fast-fails before letting one probe in.
COOLDOWN = 20.0


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """One site's breaker state machine."""

    __slots__ = ("state", "failures", "opened_at", "probing", "trips")

    def __init__(self) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False
        self.trips = 0

    def allow(self, now: float) -> bool:
        """May a request proceed at simulated time ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= COOLDOWN:
                self.state = BreakerState.HALF_OPEN
                self.probing = False
            else:
                return False
        # HALF_OPEN: exactly one probe at a time.
        if self.probing:
            return False
        self.probing = True
        return True

    def on_success(self) -> None:
        self.failures = 0
        self.probing = False
        self.state = BreakerState.CLOSED

    def on_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        self.failures += 1
        if self.failures >= FAILURE_THRESHOLD:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.failures = 0
        self.probing = False
        self.trips += 1


class BreakerBoard:
    """The per-site breaker array plus aggregate accounting."""

    def __init__(self, n_sites: int) -> None:
        if n_sites <= 0:
            raise ReproError(f"need at least one site, got {n_sites}")
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker() for _ in range(n_sites)
        ]
        #: Requests fast-failed by an open breaker.
        self.rejections = 0

    def allow(self, site: int, now: float) -> bool:
        allowed = self.breakers[site].allow(now)
        if not allowed:
            self.rejections += 1
        return allowed

    def on_success(self, site: int) -> None:
        self.breakers[site].on_success()

    def on_failure(self, site: int, now: float) -> None:
        self.breakers[site].on_failure(now)

    @property
    def trips(self) -> int:
        return sum(b.trips for b in self.breakers)

    def states(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for breaker in self.breakers:
            counts[breaker.state.value] = counts.get(breaker.state.value, 0) + 1
        return counts

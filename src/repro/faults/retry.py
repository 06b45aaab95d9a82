"""Bounded, jittered retry/backoff policies in *simulated* time.

A denied access in the replicated database is often transient: the
submitting site's component is one repair away from a quorum. A
:class:`RetryPolicy` gives the serving sequencer a disciplined second
chance — exponential backoff with full-jitter, a cap on attempts, and a
hard deadline — all measured on its simulated clock, so retries compose
deterministically with scripted fault schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FaultInjectionError
from repro.rng import RandomState, as_generator

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry discipline for the serving sequencer's denied requests.

    Attributes
    ----------
    max_attempts:
        Total tries including the first; ``1`` disables retrying.
    base_delay:
        Backoff before the first retry (simulated time units).
    multiplier:
        Exponential growth factor between consecutive backoffs.
    max_delay:
        Cap on any single backoff.
    deadline:
        Maximum total simulated time spent on one access (first submission
        to last retry), measured from the first attempt. ``None`` means
        attempts alone bound the loop.
    jitter:
        Fraction in ``[0, 1]``; each backoff is scaled by a uniform draw
        from ``[1 - jitter, 1 + jitter]`` (seeded, reproducible). Jitter
        decorrelates retry storms when many sites retry the same outage.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 8.0
    deadline: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultInjectionError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.base_delay < 0.0:
            raise FaultInjectionError(
                f"base_delay must be non-negative, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise FaultInjectionError(
                f"multiplier must be at least 1, got {self.multiplier}"
            )
        if self.max_delay < self.base_delay:
            raise FaultInjectionError(
                f"max_delay ({self.max_delay}) must not undercut base_delay "
                f"({self.base_delay})"
            )
        if self.deadline is not None and self.deadline <= 0.0:
            raise FaultInjectionError(
                f"deadline must be positive, got {self.deadline}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultInjectionError(
                f"jitter must lie in [0, 1], got {self.jitter}"
            )

    # ------------------------------------------------------------------
    def backoff(self, attempt: int, rng: RandomState = None) -> float:
        """Backoff to wait after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise FaultInjectionError(f"attempt numbers are 1-based, got {attempt}")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter > 0.0 and delay > 0.0:
            scale = float(as_generator(rng).uniform(1.0 - self.jitter, 1.0 + self.jitter))
            delay *= scale
        return delay

    def within_deadline(self, elapsed: float) -> bool:
        """May another attempt start, ``elapsed`` after the first one?"""
        return self.deadline is None or elapsed < self.deadline

    def describe(self) -> str:
        deadline = f", deadline={self.deadline:g}" if self.deadline is not None else ""
        return (
            f"retry(attempts={self.max_attempts}, base={self.base_delay:g}, "
            f"x{self.multiplier:g}, cap={self.max_delay:g}, "
            f"jitter={self.jitter:g}{deadline})"
        )

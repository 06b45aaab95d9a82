"""Transaction outcome types for the replicated database.

Kept deliberately small: an access either commits with a payload or is
denied with a reason. The database layer produces these; tests and
examples pattern-match on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Tuple

__all__ = ["AccessOutcome", "ReadResult", "WriteResult"]


class AccessOutcome(Enum):
    """Why an access ended the way it did."""

    GRANTED = "granted"
    #: The submitting site is down — ACC counts this as a denial.
    SITE_DOWN = "site_down"
    #: The component lacks the required quorum of votes.
    NO_QUORUM = "no_quorum"


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a read access."""

    outcome: AccessOutcome
    site: int
    time: float
    #: The value and commit timestamp returned (granted reads only).
    value: Any = None
    timestamp: Optional[int] = None
    #: Votes visible in the submitting site's component when decided.
    component_votes: int = 0

    @property
    def granted(self) -> bool:
        return self.outcome is AccessOutcome.GRANTED


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a write access."""

    outcome: AccessOutcome
    site: int
    time: float
    #: Commit timestamp assigned (granted writes only).
    timestamp: Optional[int] = None
    #: Replica sites whose copies were updated (granted writes only).
    updated_sites: Tuple[int, ...] = ()
    component_votes: int = 0

    @property
    def granted(self) -> bool:
        return self.outcome is AccessOutcome.GRANTED

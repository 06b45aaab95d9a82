"""Per-site storage for replicated data item copies.

Each copy carries a *version timestamp* — a monotone commit sequence
number assigned by the write path — alongside its value. Reads resolve
staleness by comparing timestamps: the quorum intersection property
guarantees the newest timestamp visible in any read quorum is the newest
commit overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import ReproError

__all__ = ["CopyState", "SiteStore"]


@dataclass(frozen=True)
class CopyState:
    """One copy's state: the value and the commit timestamp that wrote it."""

    value: Any
    timestamp: int

    def newer_than(self, other: "CopyState") -> bool:
        return self.timestamp > other.timestamp


class SiteStore:
    """All item copies held at one site.

    A site can hold copies of many items; the paper evaluates a single
    item, and the store is keyed by item id.
    """

    def __init__(self, site: int) -> None:
        if site < 0:
            raise ReproError(f"site id must be non-negative, got {site}")
        self.site = int(site)
        self._copies: Dict[str, CopyState] = {}

    def initialize(self, item_id: str, value: Any) -> None:
        """Install the initial copy (timestamp 0)."""
        self._copies[item_id] = CopyState(value=value, timestamp=0)

    def read(self, item_id: str) -> CopyState:
        """Return this copy's state; raises if the site holds no copy."""
        try:
            return self._copies[item_id]
        except KeyError:
            raise ReproError(f"site {self.site} holds no copy of {item_id!r}") from None

    def install(self, item_id: str, copy: CopyState) -> None:
        """Install ``copy`` itself (one immutable copy may sit at many sites).

        Stale installs are rejected. The monotonicity check is a
        defence-in-depth assertion: the quorum write path always writes
        strictly increasing timestamps, so a violation here means a
        protocol bug, not a data race.
        """
        current = self._copies.get(item_id)
        if current is not None and copy.timestamp <= current.timestamp:
            raise ReproError(
                f"stale write to {item_id!r} at site {self.site}: "
                f"timestamp {copy.timestamp} <= current {current.timestamp}"
            )
        self._copies[item_id] = copy

    def items(self) -> Dict[str, CopyState]:
        """Snapshot of all copies at this site."""
        return dict(self._copies)

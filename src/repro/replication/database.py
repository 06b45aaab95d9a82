"""The replicated database: one item, a copy per site, over a protocol.

:class:`ReplicatedDatabase` keeps one copy of the item at every site
(``copies``), a mutable network state, and a protocol instance; callers
drive it with ``submit_read`` / ``submit_write`` plus explicit
failure/repair calls. Votes are the topology's, so partial replication is
a topology with zero-vote sites: their copies count toward no quorum. The
execution model follows the paper's instantaneous-event semantics: no
site or link changes state while an access is processing.

**Decision.** Both operations share one step: the protocol's grant mask
at the submitting site decides, and a denial's cause is refined on the
spot. A ``no_quorum`` denial in a component whose assignment version is
older than the newest installed one reads ``stale_assignment`` (the
QR propagation rule's cost, not the partition's). The cause is the
result's ``outcome`` and, with a recorder on, the audit record's reason.

**Read path.** A granted read returns the copy with the highest commit
timestamp in the submitting site's component. Quorum intersection
(``q_r + q_w > T``) guarantees this is the globally newest committed
value — asserted, not assumed: a one-copy-serializability checker
compares every granted read against the last granted write and raises
:class:`~repro.errors.SerializabilityError` on any mismatch.

**Write path.** A granted write gets a fresh commit timestamp and is
installed at every site of the component (a superset of a write quorum).
``q_w > T/2`` makes concurrent writes in disjoint components impossible —
also asserted by the checker, which tracks commit timestamps globally.

**Resilience.** A denied access is returned, never retried here: the
caller that owns a clock (the serving sequencer) schedules its own
retries. With an :class:`~repro.faults.monitor.InvariantMonitor`
attached, consistency mismatches are *recorded* with context instead of
raised, so one bad read cannot kill a whole chaos campaign.

**Decision view.** What an access needs besides the grant itself — the
sites of its component, the effective quorums, the component's
assignment version and the newest installed one — changes only when
:func:`decision_key` does. The database keeps one view, built per
component on first use and dropped when the key moves, so an access
pays a key comparison and a dict lookup for it. An entry also carries
its component's newest copy: scanned from ``copies`` on the first read
that needs it and dropped by a granted write there, so it is always what
the copies hold and the checker compares against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.monitor import InvariantMonitor

import numpy as np

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ReproError, SerializabilityError
from repro.protocols.base import ReplicaControlProtocol
from repro.telemetry import audit as _audit
from repro.telemetry.recorder import resolve as _resolve_telemetry
from repro.topology.model import Topology

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "CopyState",
    "ReplicatedDatabase",
    "decision_key",
]


class AccessOutcome(Enum):
    """Why an access ended the way it did: the audit log's causes."""

    GRANTED = _audit.GRANTED
    #: The submitting site is down — ACC counts this as a denial.
    SITE_DOWN = _audit.SITE_DOWN
    #: The component lacks the required quorum of votes.
    NO_QUORUM = _audit.NO_QUORUM
    #: As ``NO_QUORUM``, in a component holding an assignment version
    #: older than the newest installed one.
    STALE_ASSIGNMENT = _audit.STALE_ASSIGNMENT


#: ``AccessOutcome`` by cause string (a dict lookup, not an enum call).
_OUTCOMES = {outcome.value: outcome for outcome in AccessOutcome}


@dataclass(frozen=True)
class CopyState:
    """One copy's state: the value and the commit timestamp that wrote it."""

    value: Any
    timestamp: int


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one read or write."""

    op: str  # "read" | "write"
    outcome: AccessOutcome
    site: int
    time: float
    #: The value a granted read returned.
    value: Any = None
    #: The commit timestamp a granted access read or wrote.
    timestamp: Optional[int] = None
    #: Sites whose copies a granted write updated.
    updated_sites: Tuple[int, ...] = ()
    #: Votes visible in the submitting site's component when decided.
    component_votes: int = 0

    @property
    def granted(self) -> bool:
        return self.outcome is AccessOutcome.GRANTED


def decision_key(tracker: ComponentTracker, protocol: Any
                 ) -> Tuple[int, Optional[int], Optional[int]]:
    """``(state version, newest version, installs)``: what decisions hang on.

    Every failure or repair moves the network state's version; a QR
    install raises the newest assignment version and the install count,
    and a protocol ``reset()`` rewinds both. Protocols without versions
    contribute ``None``. The database's decision view is keyed on it. It
    reads two attributes: no array is reduced per access.
    """
    return (
        tracker.state.version,
        getattr(protocol, "newest_version", None),
        getattr(protocol, "installs", None),
    )


_by_timestamp = attrgetter("timestamp")


@dataclass
class _ComponentView:
    """What every access in one component shares under one decision key."""

    #: The component's sites, each holding a copy.
    replicas: Tuple[int, ...]
    read_quorum: Optional[int]
    write_quorum: Optional[int]
    #: The component's assignment version (versioned protocols only).
    version: Optional[int]
    #: The newest version installed anywhere: a ``no_quorum`` denial under
    #: an older ``version`` is refined to ``stale_assignment``.
    newest: Optional[int]
    #: The newest copy among ``replicas``: None until a read needs it, and
    #: again after a granted write here.
    copy: Optional[CopyState] = None


class ReplicatedDatabase:
    """One replicated item served by a protocol over a fallible network."""

    def __init__(
        self,
        topology: Topology,
        protocol: ReplicaControlProtocol,
        initial_value: Any = None,
        monitor: Optional["InvariantMonitor"] = None,
        telemetry=None,
    ) -> None:
        self.topology = topology
        self.protocol = protocol
        #: Optional chaos monitor: serializability mismatches are recorded
        #: there (with context) instead of raised.
        self.monitor = monitor
        #: Telemetry recorder: every access decision is audited with its
        #: cause and the quorums in force. The null recorder makes this free.
        self.telemetry = _resolve_telemetry(telemetry)
        if self.telemetry.enabled:
            bind = getattr(protocol, "bind_telemetry", None)
            if bind is not None:
                bind(self.telemetry)

        self.state = NetworkState(topology)
        self.tracker = ComponentTracker(self.state)
        #: The copy at each site, by site id. Code that replaces one
        #: outside the write path must drop the view (``_view_key = None``).
        self.copies: List[CopyState] = (
            [CopyState(value=initial_value, timestamp=0)] * topology.n_sites)

        #: Monotone logical clock assigning commit timestamps.
        self._clock = 0
        #: (timestamp, value) of the last granted write, for the checker.
        self._last_commit: Tuple[int, Any] = (0, initial_value)
        self._time = 0.0
        #: The decision view: per component (or down site), for
        #: ``_view_key`` only; see :meth:`_view_of`.
        self._view_key: Optional[tuple] = None
        self._view: Dict[int, _ComponentView] = {}
        #: ``repro_db_accesses_total`` series by (op, outcome), keyed once.
        self._access_series: Dict[Tuple[str, str], Any] = {}

        self.protocol.on_network_change(self.tracker)

    # ------------------------------------------------------------------
    # Network control (exposed so tests/examples can script partitions)
    # ------------------------------------------------------------------
    def _network_changed(self) -> None:
        self.protocol.on_network_change(self.tracker)

    def fail_site(self, site: int) -> None:
        self.state.fail_site(site)
        self._network_changed()

    def repair_site(self, site: int) -> None:
        self.state.repair_site(site)
        self._network_changed()

    def fail_link(self, a: int, b: int) -> None:
        self.state.fail_link(self.topology.link_id(a, b))
        self._network_changed()

    def repair_link(self, a: int, b: int) -> None:
        self.state.repair_link(self.topology.link_id(a, b))
        self._network_changed()

    def advance_time(self, dt: float) -> None:
        """Move the logical wall clock (timestamps on results only)."""
        if dt < 0:
            raise ReproError(f"time must not run backwards, got dt={dt}")
        self._time += dt

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _view_of(self, site: int) -> _ComponentView:
        """``site``'s entry in the decision view, built on first use."""
        key = decision_key(self.tracker, self.protocol)
        if key != self._view_key:
            self._view_key = key
            self._view = {}
        label = int(self.tracker.labels[site])
        # A down site belongs to no component: its entry is its own.
        slot = label if label >= 0 else -1 - site
        view = self._view.get(slot)
        if view is None:
            view = self._view[slot] = self._build_view(site)
        return view

    def _build_view(self, site: int) -> _ComponentView:
        protocol = self.protocol
        members = self.tracker.component_of(site)
        assignment = None
        effective = getattr(protocol, "effective_assignment", None)
        if effective is not None:
            assignment = effective(self.tracker, site)
        if assignment is None:
            assignment = getattr(protocol, "assignment", None)
        version = newest = None
        versions = getattr(protocol, "site_version", None)
        if versions is not None:
            versions = np.asarray(versions)
            version = int(versions[members].max()) if members.size else int(versions[site])
            newest = int(versions.max())
        return _ComponentView(
            replicas=tuple(int(s) for s in members),
            read_quorum=getattr(assignment, "read_quorum", None),
            write_quorum=getattr(assignment, "write_quorum", None),
            version=version,
            newest=newest,
        )

    def _newest_copy(self, view: _ComponentView) -> CopyState:
        """The newest copy in ``view``'s component; rescanned after a write."""
        copy = view.copy
        if copy is None:
            copy = view.copy = self._scan_newest(view.replicas)
        return copy

    def _scan_newest(self, replicas: Tuple[int, ...]) -> CopyState:
        copies = self.copies
        return max((copies[r] for r in replicas), key=_by_timestamp)

    def _consistency_violation(self, detail: str) -> None:
        """Record (chaos mode) or raise (strict mode) a 1SR violation."""
        if self.monitor is not None:
            self.monitor.record_serializability(self._time, detail)
        else:
            raise SerializabilityError(detail)

    def _decide(self, site: int, is_read: bool
                ) -> Tuple[str, Optional[int], Optional[_ComponentView]]:
        """``(cause, component votes, view)`` of one access at ``site``.

        A down site has no votes and no view. Otherwise the view is
        looked up after the protocol's grant mask has decided.
        """
        self._check_site(site)
        if not self.state.site_up[site]:
            return _audit.SITE_DOWN, None, None
        votes = self.tracker.votes_at(site)
        read_mask, write_mask = self.protocol.grant_masks(self.tracker)
        granted = (read_mask if is_read else write_mask)[site]
        view = self._view_of(site)
        if granted:
            return _audit.GRANTED, votes, view
        if view.newest is not None and view.version < view.newest:
            return _audit.STALE_ASSIGNMENT, votes, view
        return _audit.NO_QUORUM, votes, view

    def _result(self, op: str, site: int, cause: str, votes: Optional[int],
                view: Optional[_ComponentView], **granted: Any
                ) -> AccessResult:
        """The access's result, audited when a recorder is on."""
        tel = self.telemetry
        if tel.enabled:
            if view is None:
                view = self._view_of(site)
            tel.audit.record(
                self._time, op, cause,
                site=site,
                component_votes=votes,
                component_size=len(view.replicas),
                read_quorum=view.read_quorum,
                write_quorum=view.write_quorum,
                assignment_version=view.version,
            )
            series = self._access_series.get((op, cause))
            if series is None:
                series = self._access_series[(op, cause)] = tel.metrics.counter(
                    "repro_db_accesses_total", "database access decisions by cause",
                ).labels(op=op, outcome=cause)
            series.inc()
        return AccessResult(op, _OUTCOMES[cause], site, self._time,
                            component_votes=votes or 0, **granted)

    def submit_read(self, site: int) -> AccessResult:
        """Submit a read at ``site``.

        A granted read returns the newest copy visible in the component
        and is checked against the last granted write.
        """
        cause, votes, view = self._decide(site, is_read=True)
        if cause != _audit.GRANTED:
            return self._result("read", site, cause, votes, view)
        newest = self._newest_copy(view)
        expected_ts, expected_value = self._last_commit
        if newest.timestamp != expected_ts or newest.value != expected_value:
            self._consistency_violation(
                f"read at site {site} returned timestamp {newest.timestamp} "
                f"(value {newest.value!r}) but the last committed write is "
                f"timestamp {expected_ts} (value {expected_value!r}) — "
                "one-copy serializability violated"
            )
        return self._result("read", site, cause, votes, view,
                            value=newest.value, timestamp=newest.timestamp)

    def submit_write(self, site: int, value: Any) -> AccessResult:
        """Submit a write at ``site``; on grant, installs at every site of its component."""
        cause, votes, view = self._decide(site, is_read=False)
        if cause != _audit.GRANTED:
            return self._result("write", site, cause, votes, view)
        self._clock += 1
        timestamp = self._clock
        if timestamp <= self._last_commit[0]:
            self._consistency_violation(
                f"write commit timestamp {timestamp} not newer than last commit "
                f"{self._last_commit[0]} — concurrent writes slipped through"
            )
        copy = CopyState(value=value, timestamp=timestamp)
        copies = self.copies
        for r in view.replicas:
            # The write path only ever installs increasing timestamps, so
            # a stale install means a protocol bug, not a data race.
            if copies[r].timestamp >= timestamp:
                raise ReproError(
                    f"stale write at site {r}: timestamp {timestamp} <= "
                    f"current {copies[r].timestamp}"
                )
            copies[r] = copy
        view.copy = None
        self._last_commit = (timestamp, value)
        return self._result("write", site, cause, votes, view,
                            timestamp=timestamp, updated_sites=view.replicas)

    def peek_newest(self, site: int) -> Optional[CopyState]:
        """The newest copy visible in ``site``'s component, sans quorum.

        The stale-read fallback of the serving layer: when a read has
        exhausted its retries, the freshest *component-local* copy may
        still be worth serving — explicitly marked stale, never counted
        as a granted read, and carrying no consistency guarantee. Returns
        None when the site is down.
        """
        self._check_site(site)
        if not self.state.site_up[site]:
            return None
        return self._newest_copy(self._view_of(site))

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.topology.n_sites:
            raise ReproError(f"unknown site {site}")

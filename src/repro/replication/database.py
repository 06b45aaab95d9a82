"""The replicated database: the data path over a replica-control protocol.

:class:`ReplicatedDatabase` owns the per-site stores, a mutable network
state, and a protocol instance; callers drive it with ``submit_read`` /
``submit_write`` plus explicit failure/repair calls (or let the
discrete-event simulator drive the network underneath). The execution
model follows the paper's instantaneous-event semantics: no site or link
changes state while an access is processing.

**Read path.** If the protocol grants the read, the database returns the
copy with the highest commit timestamp among replicas in the submitting
site's component. Quorum intersection (``q_r + q_w > T``) guarantees this
is the globally newest committed value — asserted, not assumed: a
one-copy-serializability checker compares every granted read against the
last granted write and raises :class:`~repro.errors.SerializabilityError`
on any mismatch.

**Write path.** If the protocol grants the write, a fresh commit
timestamp is assigned and the new value installed at every replica in the
component (a superset of a write quorum). ``q_w > T/2`` makes concurrent
writes in disjoint components impossible — also asserted by the checker,
which tracks commit timestamps globally.

**Resilience.** With a :class:`~repro.faults.retry.RetryPolicy` attached,
a denied access is retried with jittered exponential backoff on the
database's *simulated* clock, bounded by attempts and an optional
deadline. The ``on_wait`` hook fires after each backoff advance so a
driving harness (a chaos scenario, a fault-schedule replayer) can apply
the repairs that make the retry worthwhile. With an
:class:`~repro.faults.monitor.InvariantMonitor` attached, consistency
mismatches are *recorded* with context instead of raised, so one bad
read cannot kill a whole chaos campaign.

**Decision view.** What an access needs besides the grant itself — the
replica sites of its component, the member count, the effective quorums,
the component's assignment version and the newest installed one — changes
only when :func:`decision_key` does. The database keeps one view, built
per component on first use and dropped when the key moves, so an access
pays a key comparison and a dict lookup for it. An entry also carries
its component's newest copy: scanned from the stores on the first read
that needs it and dropped by a granted write there, so it is always what
the stores hold and the checker compares against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.monitor import InvariantMonitor
    from repro.faults.retry import RetryPolicy

import numpy as np

from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import ProtocolError, ReproError, SerializabilityError
from repro.protocols.base import ReplicaControlProtocol
from repro.replication.item import ReplicatedItem
from repro.replication.store import CopyState, SiteStore
from repro.replication.transaction import AccessOutcome, ReadResult, WriteResult
from repro.rng import RandomState, as_generator
from repro.telemetry import audit as _audit
from repro.telemetry.recorder import resolve as _resolve_telemetry
from repro.topology.model import Topology

__all__ = ["ReplicatedDatabase", "decision_key"]


def decision_key(tracker: ComponentTracker, protocol: Any
                 ) -> Tuple[int, Optional[int], Optional[int]]:
    """``(state version, newest version, installs)``: what decisions hang on.

    Every failure or repair moves the network state's version; a QR
    install raises the newest assignment version and the install count,
    and a protocol ``reset()`` rewinds both. Protocols without versions
    contribute ``None``. One key serves every per-state cache of decision
    answers (the database's view, the serving layer's grant masks). It
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

    replicas: Tuple[int, ...]
    size: int
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
        item: Optional[ReplicatedItem] = None,
        initial_value: Any = None,
        check_serializability: bool = True,
        retry_policy: Optional["RetryPolicy"] = None,
        retry_seed: RandomState = None,
        on_wait: Optional[Callable[[float], None]] = None,
        monitor: Optional["InvariantMonitor"] = None,
        telemetry=None,
        record_history: bool = True,
    ) -> None:
        self.topology = topology
        self.protocol = protocol
        self.item = item or ReplicatedItem.fully_replicated("item", topology)
        if not np.array_equal(self.item.votes_vector(topology.n_sites), topology.votes):
            raise ProtocolError(
                "item vote placement disagrees with the topology's vote vector; "
                "build the topology with Topology.with_votes(item.votes_vector(n))"
            )
        self.check_serializability = check_serializability
        #: Optional retry/backoff discipline applied by submit_read/submit_write.
        self.retry_policy = retry_policy
        self._retry_rng = as_generator(retry_seed)
        #: Called with the new simulated time after each backoff advance,
        #: letting the driving harness heal (or further break) the network
        #: while the access waits.
        self.on_wait = on_wait
        #: Optional chaos monitor: serializability mismatches are recorded
        #: there (with context) instead of raised.
        self.monitor = monitor
        #: Telemetry recorder: every access decision is audited with its
        #: cause (granted / site_down / no_quorum / stale_assignment) and
        #: the quorums in force. The null recorder makes this free.
        self.telemetry = _resolve_telemetry(telemetry)
        if self.telemetry.enabled:
            bind = getattr(protocol, "bind_telemetry", None)
            if bind is not None:
                bind(self.telemetry)

        self.state = NetworkState(topology)
        self.tracker = ComponentTracker(self.state)
        self.stores: Dict[int, SiteStore] = {}
        for site in self.item.replica_sites:
            store = SiteStore(site)
            store.initialize(self.item.item_id, initial_value)
            self.stores[site] = store

        #: Monotone logical clock assigning commit timestamps.
        self._clock = 0
        #: (timestamp, value) of the last granted write, for the checker.
        self._last_commit: Tuple[int, Any] = (0, initial_value)
        #: Operation log for post-hoc analysis. Long-running drivers (the
        #: serving layer pushes ~10^6 accesses through one database) turn
        #: it off; the audit log keeps the exact totals either way.
        self.record_history = record_history
        self.history: List[object] = []
        #: Refined cause of the most recent access decision, exactly as
        #: the audit log recorded it (``granted`` / ``site_down`` /
        #: ``no_quorum`` / ``stale_assignment``). Lets callers reconcile
        #: their own accounting against the audit totals without
        #: re-deriving the stale-assignment refinement. None until the
        #: first audited decision (requires an enabled recorder).
        self.last_audit_reason: Optional[str] = None
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
        holds = self.item.holds_copy
        return _ComponentView(
            replicas=tuple(int(s) for s in members if holds(int(s))),
            size=int(members.size),
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
        item_id = self.item.item_id
        stores = self.stores
        return max((stores[r].read(item_id) for r in replicas), key=_by_timestamp)

    def _consistency_violation(self, detail: str) -> None:
        """Record (chaos mode) or raise (strict mode) a 1SR violation."""
        if self.monitor is not None:
            self.monitor.record_serializability(self._time, detail)
        else:
            raise SerializabilityError(detail)

    def _audit_decision(self, op: str, site: int, reason: str,
                        votes: Optional[int], attempt: int,
                        view: Optional[_ComponentView] = None) -> None:
        """Audit one access decision (enabled recorders only).

        A ``no_quorum`` denial is refined to ``stale_assignment`` when
        the protocol is versioned and the submitting site's component
        holds an assignment version older than the newest installed one —
        the denial is then a cost of the QR propagation rule, not of the
        partition itself. A granted access hands in the ``view`` it
        already looked up.
        """
        tel = self.telemetry
        if not tel.enabled:
            self.last_audit_reason = reason
            return
        if view is None:
            view = self._view_of(site)
        if (reason == _audit.NO_QUORUM and view.newest is not None
                and view.version < view.newest):
            reason = _audit.STALE_ASSIGNMENT
        self.last_audit_reason = reason
        tel.audit.record(
            self._time, op, reason,
            site=site,
            component_votes=None if votes is None else int(votes),
            component_size=view.size,
            read_quorum=view.read_quorum,
            write_quorum=view.write_quorum,
            assignment_version=view.version,
        )
        series = self._access_series.get((op, reason))
        if series is None:
            series = self._access_series[(op, reason)] = tel.metrics.counter(
                "repro_db_accesses_total", "database access decisions by cause",
            ).labels(op=op, outcome=reason)
        series.inc()
        if attempt > 1:
            tel.metrics.counter(
                "repro_db_retries_total", "access attempts beyond the first",
            ).inc(op=op)

    def _retry_loop(self, op: str, attempt_once):
        """Drive ``attempt_once(attempt_number)`` under the retry policy.

        Backoff runs on the simulated clock; ``on_wait`` fires after every
        advance so the harness can evolve the network before the retry.
        The last (possibly still denied) result is returned. Every retry
        scheduled counts toward ``repro_retry_attempts_total`` and a final
        denial toward ``repro_retry_exhausted_total``, both labeled with
        the (refined) cause of the denial that provoked them.
        """
        policy = self.retry_policy
        result = attempt_once(1)
        if policy is None or result.granted:
            return result
        started = self._time
        attempt = 1
        tel = self.telemetry
        while attempt < policy.max_attempts:
            cause = self.last_audit_reason or result.outcome.value
            delay = policy.backoff(attempt, self._retry_rng)
            if not policy.within_deadline(self._time + delay - started):
                break
            tel.metrics.counter(
                "repro_retry_attempts_total",
                "retry attempts scheduled, by op and denial cause",
            ).inc(op=op, cause=cause)
            self.advance_time(delay)
            if self.on_wait is not None:
                self.on_wait(self._time)
            attempt += 1
            result = attempt_once(attempt)
            if result.granted:
                return result
        tel.metrics.counter(
            "repro_retry_exhausted_total",
            "accesses failed after their retry budget, by op and last cause",
        ).inc(op=op, cause=self.last_audit_reason or result.outcome.value)
        return result

    def submit_read(self, site: int) -> ReadResult:
        """Submit a read at ``site``; returns the outcome.

        A granted read returns the newest copy visible in the component.
        Under a retry policy, denied reads are retried with backoff; every
        attempt is appended to the history and the returned result's
        ``attempts`` says which try produced it.
        """
        self._check_site(site)
        return self._retry_loop("read", lambda attempt: self._read_once(site, attempt))

    def _read_once(self, site: int, attempt: int) -> ReadResult:
        if not self.state.site_up[site]:
            result = ReadResult(
                AccessOutcome.SITE_DOWN, site, self._time, attempts=attempt
            )
            if self.record_history:
                self.history.append(result)
            self._audit_decision("read", site, _audit.SITE_DOWN, None, attempt)
            return result
        votes = self.tracker.votes_at(site)
        if not self.protocol.decide(site, is_read=True, tracker=self.tracker):
            result = ReadResult(
                AccessOutcome.NO_QUORUM, site, self._time, component_votes=votes,
                attempts=attempt,
            )
            if self.record_history:
                self.history.append(result)
            self._audit_decision("read", site, _audit.NO_QUORUM, votes, attempt)
            return result

        view = self._view_of(site)
        replicas = view.replicas
        if not replicas:
            # A protocol granting a read in a replica-free component is
            # broken (it saw >= q_r >= 1 votes, so some replica is there).
            raise ProtocolError(
                f"protocol granted a read at site {site} but its component "
                "holds no replica"
            )
        newest = self._newest_copy(view)
        if self.check_serializability:
            expected_ts, expected_value = self._last_commit
            if newest.timestamp != expected_ts or newest.value != expected_value:
                self._consistency_violation(
                    f"read at site {site} returned timestamp {newest.timestamp} "
                    f"(value {newest.value!r}) but the last committed write is "
                    f"timestamp {expected_ts} (value {expected_value!r}) — "
                    "one-copy serializability violated"
                )
        result = ReadResult(
            AccessOutcome.GRANTED,
            site,
            self._time,
            value=newest.value,
            timestamp=newest.timestamp,
            component_votes=votes,
            attempts=attempt,
        )
        if self.record_history:
            self.history.append(result)
        self._audit_decision("read", site, _audit.GRANTED, votes, attempt, view)
        return result

    def submit_write(self, site: int, value: Any) -> WriteResult:
        """Submit a write at ``site``; on grant, installs at all reachable replicas.

        Under a retry policy, denied writes are retried with backoff
        exactly like reads.
        """
        self._check_site(site)
        return self._retry_loop(
            "write", lambda attempt: self._write_once(site, value, attempt)
        )

    def _write_once(self, site: int, value: Any, attempt: int) -> WriteResult:
        if not self.state.site_up[site]:
            result = WriteResult(
                AccessOutcome.SITE_DOWN, site, self._time, attempts=attempt
            )
            if self.record_history:
                self.history.append(result)
            self._audit_decision("write", site, _audit.SITE_DOWN, None, attempt)
            return result
        votes = self.tracker.votes_at(site)
        if not self.protocol.decide(site, is_read=False, tracker=self.tracker):
            result = WriteResult(
                AccessOutcome.NO_QUORUM, site, self._time, component_votes=votes,
                attempts=attempt,
            )
            if self.record_history:
                self.history.append(result)
            self._audit_decision("write", site, _audit.NO_QUORUM, votes, attempt)
            return result

        view = self._view_of(site)
        replicas = view.replicas
        if not replicas:
            raise ProtocolError(
                f"protocol granted a write at site {site} but its component "
                "holds no replica"
            )
        self._clock += 1
        timestamp = self._clock
        if self.check_serializability and timestamp <= self._last_commit[0]:
            self._consistency_violation(
                f"write commit timestamp {timestamp} not newer than last commit "
                f"{self._last_commit[0]} — concurrent writes slipped through"
            )
        copy = CopyState(value=value, timestamp=timestamp)
        item_id = self.item.item_id
        stores = self.stores
        for r in replicas:
            stores[r].install(item_id, copy)
        view.copy = None
        self._last_commit = (timestamp, value)
        result = WriteResult(
            AccessOutcome.GRANTED,
            site,
            self._time,
            timestamp=timestamp,
            updated_sites=replicas,
            component_votes=votes,
            attempts=attempt,
        )
        if self.record_history:
            self.history.append(result)
        self._audit_decision("write", site, _audit.GRANTED, votes, attempt, view)
        return result

    def peek_newest(self, site: int):
        """The newest copy visible in ``site``'s component, sans quorum.

        The stale-read fallback of the serving layer: when a read has
        exhausted its retries, the freshest *component-local* copy may
        still be worth serving — explicitly marked stale, never counted
        as a granted read, and carrying no consistency guarantee. Returns
        None when the site is down or its component holds no replica.
        """
        self._check_site(site)
        if not self.state.site_up[site]:
            return None
        view = self._view_of(site)
        if not view.replicas:
            return None
        return self._newest_copy(view)

    # ------------------------------------------------------------------
    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.topology.n_sites:
            raise ReproError(f"unknown site {site}")

    def copy_at(self, site: int):
        """Inspect the raw copy at one replica site (tests/debugging)."""
        if site not in self.stores:
            raise ReproError(f"site {site} holds no replica")
        return self.stores[site].read(self.item.item_id)

    def grant_counts(self) -> Dict[str, int]:
        """Tally of outcomes in the history, for quick availability checks."""
        counts: Dict[str, int] = {}
        for entry in self.history:
            kind = "read" if isinstance(entry, ReadResult) else "write"
            key = f"{kind}:{entry.outcome.value}"
            counts[key] = counts.get(key, 0) + 1
        return counts

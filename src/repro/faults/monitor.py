"""Continuous safety-invariant monitoring for chaos runs.

:class:`InvariantMonitor` plugs into the simulation engine as a
``ChangeObserver`` (and into :class:`~repro.replication.database.
ReplicatedDatabase` as an access-path hook) and re-checks, after every
topology change, the invariants the paper's correctness argument rests
on:

- **quorum intersection** (section 2.1): every effective assignment
  satisfies ``q_r + q_w > T`` and ``q_w > T/2``;
- **behavioral intersection**: writes are never granted in two disjoint
  components, and a read is never granted in a component disjoint from a
  write-granted one (the observable symptom of a broken assignment);
- **QR installation/propagation rules** (section 2.2): per-site version
  numbers never regress, and no component is granted any access while
  holding a stale (non-maximal-version) assignment;
- **one-copy serializability**, reported by the database's read/write
  checker through :meth:`record_serializability`.

Violations are *recorded*, not raised — a chaos campaign wants the full
list of everything that went wrong plus a replayable seed, not a
traceback from the first hiccup. A test asserts ``monitor.ok`` (with
``monitor.summary()`` as the message) to fail on any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.connectivity.dynamic import ComponentTracker
from repro.errors import FaultInjectionError, InvariantViolation
from repro.telemetry.recorder import resolve as _resolve_telemetry

__all__ = ["ViolationRecord", "InvariantMonitor"]


@dataclass
class ViolationRecord:
    """One observed invariant violation, with replay context."""

    time: float
    rule: str
    detail: str
    batch_index: Optional[int] = None
    seed: Optional[int] = None
    snapshot: Dict[str, Any] = field(default_factory=dict)

    def to_error(self) -> InvariantViolation:
        """The record as a raisable, context-carrying exception."""
        return InvariantViolation(
            self.detail,
            rule=self.rule,
            sim_time=self.time,
            seed=self.seed,
            snapshot=self.snapshot,
        )

    def __str__(self) -> str:
        where = f"batch {self.batch_index}, " if self.batch_index is not None else ""
        return f"[{where}t={self.time:.4g}] {self.rule}: {self.detail}"


def _snapshot(tracker: Optional[ComponentTracker], protocol: Any) -> Dict[str, Any]:
    """A JSON-compatible picture of the network + protocol state."""
    snap: Dict[str, Any] = {}
    if tracker is not None:
        snap["site_up"] = tracker.state.site_up.astype(int).tolist()
        snap["link_up"] = tracker.state.link_up.astype(int).tolist()
        snap["labels"] = tracker.labels.tolist()
        snap["vote_totals"] = tracker.vote_totals.tolist()
    versions = getattr(protocol, "site_version", None)
    if versions is not None:
        snap["site_version"] = np.asarray(versions).tolist()
    return snap


class InvariantMonitor:
    """Records safety violations observed during a (chaos) run.

    Use as the engine's ``change_observer`` directly (instances are
    callable with the observer signature). ``max_records`` bounds memory
    on pathological runs; overflow is counted, not stored.
    """

    def __init__(
        self,
        record_snapshots: bool = True,
        max_records: int = 1_000,
        telemetry=None,
    ) -> None:
        if max_records < 0:
            raise FaultInjectionError(
                f"max_records must be non-negative, got {max_records}")
        self.record_snapshots = record_snapshots
        self.max_records = int(max_records)
        #: Violations double as metrics: every record increments
        #: ``repro_invariant_violations_total{rule=...}`` on this recorder
        #: (the null recorder unless one is active or passed explicitly).
        self.telemetry = _resolve_telemetry(telemetry)
        self.violations: List[ViolationRecord] = []
        self.overflowed = 0
        self.checks_run = 0
        self._batch_index: Optional[int] = None
        self._seed: Optional[int] = None
        self._last_versions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def start_batch(self, batch_index: int, seed: Optional[int] = None) -> None:
        """Tag subsequent violations with a batch index and seed.

        Also resets cross-event state (version history) that must not
        leak between batches — protocols reset between batches, so a
        version drop across the boundary is expected, not a violation.
        """
        self._batch_index = batch_index
        self._seed = seed
        self._last_versions = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.overflowed

    def record(
        self,
        time: float,
        rule: str,
        detail: str,
        tracker: Optional[ComponentTracker] = None,
        protocol: Any = None,
    ) -> None:
        """Record one violation (counted only, past ``max_records``)."""
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_invariant_violations_total",
                "safety-invariant violations observed by the chaos monitor",
            ).inc(rule=rule)
        snapshot = (
            _snapshot(tracker, protocol) if self.record_snapshots else {}
        )
        violation = ViolationRecord(
            time=time,
            rule=rule,
            detail=detail,
            batch_index=self._batch_index,
            seed=self._seed,
            snapshot=snapshot,
        )
        if len(self.violations) < self.max_records:
            self.violations.append(violation)
        else:
            self.overflowed += 1

    def record_serializability(self, time: float, detail: str) -> None:
        """Access-path hook: the database saw a one-copy-1SR mismatch."""
        self.record(time, "one-copy-serializability", detail)

    # ------------------------------------------------------------------
    # ChangeObserver interface
    # ------------------------------------------------------------------
    def observe(self, now: float, tracker: ComponentTracker, protocol: Any) -> None:
        """Run every applicable invariant check against the current state."""
        self.checks_run += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_invariant_checks_total",
                "invariant check sweeps run by the chaos monitor",
            ).inc()
        self._check_assignments(now, tracker, protocol)
        self._check_grant_disjointness(now, tracker, protocol)
        self._check_metamorphic_grants(now, tracker, protocol)
        self._check_versions(now, tracker, protocol)

    __call__ = observe

    # ------------------------------------------------------------------
    def _component_views(self, tracker: ComponentTracker, protocol: Any):
        """Per-component ``(members, assignment, votes)``, where discoverable.

        Dynamic protocols expose ``component_views``; static quorum
        protocols a single ``assignment`` that every component shares.
        Protocols exposing neither (majority, ROWA, primary-copy) are
        structurally safe by construction and are only covered by the
        behavioral checks.
        """
        views = getattr(protocol, "component_views", None)
        if views is not None:
            return list(views(tracker))
        assignment = getattr(protocol, "assignment", None)
        labels = tracker.labels
        if assignment is None or not (labels >= 0).any():
            return []
        totals = tracker.vote_totals
        out = []
        for label in range(int(labels.max()) + 1):
            members = np.nonzero(labels == label)[0]
            out.append((members, assignment, int(totals[members[0]])))
        return out

    def _check_assignments(self, now, tracker, protocol) -> None:
        for members, assignment, _ in self._component_views(tracker, protocol):
            T = getattr(assignment, "total_votes", None)
            q_r = getattr(assignment, "read_quorum", None)
            q_w = getattr(assignment, "write_quorum", None)
            if T is None or q_r is None or q_w is None:
                continue
            where = f"component {np.asarray(members).tolist()}"
            if q_r + q_w <= T:
                self.record(
                    now,
                    "quorum-intersection",
                    f"effective assignment (q_r={q_r}, q_w={q_w}, T={T}) in "
                    f"{where} allows a read quorum disjoint from a write quorum",
                    tracker, protocol,
                )
            if 2 * q_w <= T:
                self.record(
                    now,
                    "write-write-intersection",
                    f"effective assignment (q_r={q_r}, q_w={q_w}, T={T}) in "
                    f"{where} allows two disjoint write quorums",
                    tracker, protocol,
                )

    def _check_grant_disjointness(self, now, tracker, protocol) -> None:
        try:
            read_mask, write_mask = protocol.grant_masks(tracker)
        except Exception as exc:  # a dying protocol is itself a finding
            self.record(
                now, "grant-evaluation",
                f"protocol failed to evaluate grant masks: {exc}",
                tracker, protocol,
            )
            return
        labels = tracker.labels
        write_components = set(np.unique(labels[np.asarray(write_mask, dtype=bool)]).tolist())
        read_components = set(np.unique(labels[np.asarray(read_mask, dtype=bool)]).tolist())
        write_components.discard(-1)
        read_components.discard(-1)
        if len(write_components) > 1:
            self.record(
                now,
                "concurrent-writes",
                f"writes granted in {len(write_components)} disjoint components "
                f"{sorted(write_components)} — two partitions could commit "
                "conflicting writes",
                tracker, protocol,
            )
        if write_components and read_components - write_components:
            stale = sorted(read_components - write_components)
            self.record(
                now,
                "stale-read",
                f"reads granted in components {stale} disjoint from the "
                f"write-granted components {sorted(write_components)} — a read "
                "there could miss the newest committed write",
                tracker, protocol,
            )
        self._check_stale_assignment_grants(
            now, tracker, protocol, read_components | write_components
        )

    def _check_stale_assignment_grants(self, now, tracker, protocol,
                                       granted_components) -> None:
        versions = getattr(protocol, "site_version", None)
        if versions is None or not granted_components:
            return
        versions = np.asarray(versions)
        newest = int(versions.max())
        labels = tracker.labels
        for label in sorted(granted_components):
            members = np.nonzero(labels == label)[0]
            held = int(versions[members].max()) if members.size else 0
            if held < newest:
                self.record(
                    now,
                    "stale-assignment-grant",
                    f"component {members.tolist()} granted access under "
                    f"assignment version {held} while version {newest} is "
                    "installed elsewhere — violates the QR propagation rule",
                    tracker, protocol,
                )

    def _check_metamorphic_grants(self, now, tracker, protocol) -> None:
        """Metamorphic replay of declarative grant decisions.

        For protocols that declare their grants to be a pure function of
        (effective assignment, component vote total) — ``declarative_grants``
        — two identities must hold in every network state:

        - **grant-mask-consistency**: the mask the protocol emitted equals
          the one recomputed from the declared assignment, uniformly
          across each component's members;
        - **grant-monotonicity**: among components under the *same*
          assignment, granting a poorer component but not a richer one is
          impossible (grants are threshold functions of votes).
        """
        if not getattr(protocol, "declarative_grants", False):
            return
        try:
            read_mask, write_mask = protocol.grant_masks(tracker)
        except Exception:
            return  # already recorded as grant-evaluation
        read_mask = np.asarray(read_mask, dtype=bool)
        write_mask = np.asarray(write_mask, dtype=bool)
        observed = []  # (assignment, votes, got_read, got_write, members)
        for members, assignment, votes in self._component_views(tracker, protocol):
            for op, mask, allowed in (
                ("read", read_mask, assignment.allows_read(votes)),
                ("write", write_mask, assignment.allows_write(votes)),
            ):
                granted = mask[members]
                if granted.any() != granted.all():
                    self.record(
                        now,
                        "grant-mask-consistency",
                        f"{op} grants split within component "
                        f"{np.asarray(members).tolist()} — members of one "
                        "component must share one decision",
                        tracker, protocol,
                    )
                elif bool(granted.all()) != bool(allowed):
                    self.record(
                        now,
                        "grant-mask-consistency",
                        f"{op} mask says {bool(granted.all())} for component "
                        f"{np.asarray(members).tolist()} but its assignment "
                        f"{assignment} with {votes} votes says {bool(allowed)}",
                        tracker, protocol,
                    )
            observed.append(
                (assignment, votes,
                 bool(read_mask[members].all()), bool(write_mask[members].all()),
                 members)
            )
        for i, (asg_a, votes_a, read_a, write_a, members_a) in enumerate(observed):
            for asg_b, votes_b, read_b, write_b, members_b in observed[i + 1:]:
                if asg_a is not asg_b and asg_a != asg_b:
                    continue
                # Order so a has no more votes than b.
                if votes_a > votes_b:
                    (votes_a2, read_a2, write_a2, members_a2) = (
                        votes_b, read_b, write_b, members_b)
                    (votes_b2, read_b2, write_b2, members_b2) = (
                        votes_a, read_a, write_a, members_a)
                else:
                    (votes_a2, read_a2, write_a2, members_a2) = (
                        votes_a, read_a, write_a, members_a)
                    (votes_b2, read_b2, write_b2, members_b2) = (
                        votes_b, read_b, write_b, members_b)
                for op, lo, hi in (("read", read_a2, read_b2),
                                   ("write", write_a2, write_b2)):
                    if lo and not hi:
                        self.record(
                            now,
                            "grant-monotonicity",
                            f"{op} granted to component "
                            f"{np.asarray(members_a2).tolist()} with {votes_a2} "
                            f"votes but denied to "
                            f"{np.asarray(members_b2).tolist()} with {votes_b2} "
                            "votes under the same assignment",
                            tracker, protocol,
                        )

    def _check_versions(self, now, tracker, protocol) -> None:
        versions = getattr(protocol, "site_version", None)
        if versions is None:
            return
        versions = np.asarray(versions).copy()
        if self._last_versions is not None and versions.shape == self._last_versions.shape:
            dropped = np.nonzero(versions < self._last_versions)[0]
            if dropped.size:
                self.record(
                    now,
                    "version-regression",
                    f"assignment version regressed at sites {dropped.tolist()} "
                    f"(from {self._last_versions[dropped].tolist()} to "
                    f"{versions[dropped].tolist()})",
                    tracker, protocol,
                )
        self._last_versions = versions

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable digest of everything observed."""
        lines = [
            f"invariant checks run : {self.checks_run}",
            f"violations recorded  : {len(self.violations)}"
            + (f" (+{self.overflowed} beyond the record cap)" if self.overflowed else ""),
        ]
        by_rule: Dict[str, int] = {}
        for violation in self.violations:
            by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        for rule in sorted(by_rule):
            lines.append(f"  {rule:<28s} {by_rule[rule]}")
        for violation in self.violations[:5]:
            lines.append(f"  e.g. {violation}")
        return "\n".join(lines)

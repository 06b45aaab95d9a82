"""The serving run report: outcomes, SLOs, reconciliation, determinism digest.

A :class:`ServeReport` is plain data assembled by the service after the
drain completes. It answers the four questions the acceptance criteria
ask: did any invariant break (``violations`` / ``aborted``), did the
adaptive loop act (``reassignments``), do the serving-side attempt
counts reconcile *exactly* with the telemetry audit log
(``reconciled``), and is the whole run bitwise reproducible
(``digest`` — a SHA-256 over every per-request outcome, attempt count,
and reassignment event).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["OUTCOME_NAMES", "ReassignmentEvent", "ServeReport", "outcome_code"]

#: Per-request terminal outcomes, stored as int8 codes in id order.
OUTCOME_NAMES: Tuple[str, ...] = (
    "unserved",          # 0 — run aborted before this request was processed
    "granted",           # 1
    "stale_read",        # 2 — read denied, stale fallback served
    "timeout",           # 3 — per-request deadline exceeded
    "site_down",         # 4 — retries exhausted, last denial: site down
    "no_quorum",         # 5 — retries exhausted, last denial: no quorum
    "stale_assignment",  # 6 — retries exhausted, last denial: stale version
    "read_only",         # 7 — write fast-rejected in read-only mode
    "overload",          # 8 — shed at admission (queue full)
    "circuit_open",      # 9 — fast-failed by the site's open breaker
)

_CODE_BY_NAME = {name: code for code, name in enumerate(OUTCOME_NAMES)}


def outcome_code(name: str) -> int:
    return _CODE_BY_NAME[name]


@dataclass(frozen=True)
class ReassignmentEvent:
    """One successful (or watchdog-forced) control-loop action."""

    time: float
    site: int
    old_read_quorum: int
    new_read_quorum: int
    version: int
    trigger: str  # "control" | "watchdog"


@dataclass
class ServeReport:
    """Everything a finished (or aborted) serving run produced."""

    n_requests: int
    n_sites: int
    seed: int
    scenario: str

    #: Per-request terminal outcome codes, id order (int8).
    outcome_codes: np.ndarray
    #: Per-request database attempt counts, id order (int16).
    attempt_counts: np.ndarray
    #: Final outcome tallies by name.
    outcomes: Dict[str, int]
    #: Serving-side database attempt counts per (op, audit reason).
    db_attempts: Dict[Tuple[str, str], int]
    #: Exact audit totals per (op, reason) from the telemetry recorder.
    audit_totals: Dict[Tuple[str, str], float]

    #: Latency over granted requests (simulated seconds), computed once
    #: at report time: count, mean, max and exact nearest-rank p50 / p90
    #: / p99 (``np.quantile(..., method="inverted_cdf")``).
    latency: Dict[str, float]
    retries_scheduled: int
    retries_exhausted: int
    shed: int
    breaker_trips: int
    breaker_rejections: int

    reassignments: List[ReassignmentEvent]
    watchdog_ticks: int
    watchdog_interventions: int
    read_only_entries: int
    read_only_time: float
    final_read_quorum: int
    final_version: int
    estimator_weight: float

    violations: List[str]
    aborted: bool

    wall_seconds: float
    sim_duration: float

    #: SLO gates evaluated by exit_code (None = not enforced).
    min_availability: Optional[float] = None
    max_p99: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived accounting
    # ------------------------------------------------------------------
    @property
    def served(self) -> int:
        """Requests that reached a terminal outcome."""
        return self.n_requests - self.outcomes.get("unserved", 0)

    @property
    def availability(self) -> float:
        """Request-level ACC: granted / served."""
        served = self.served
        return self.outcomes.get("granted", 0) / served if served else 0.0

    @property
    def attempt_availability(self) -> float:
        """Attempt-level ACC (the figure the audit log reconciles against)."""
        total = sum(self.db_attempts.values())
        granted = sum(
            v for (op, reason), v in self.db_attempts.items() if reason == "granted"
        )
        return granted / total if total else 0.0

    @property
    def throughput(self) -> float:
        """Requests served per wall-clock second."""
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    # ------------------------------------------------------------------
    # Reconciliation (serving-side counts vs the audit log, exact)
    # ------------------------------------------------------------------
    @property
    def reconciled(self) -> bool:
        return not self.reconciliation_failures()

    def reconciliation_failures(self) -> List[str]:
        """Every (op, reason) cell where serving and audit disagree."""
        failures: List[str] = []
        for key in sorted(set(self.db_attempts) | set(self.audit_totals)):
            ours = self.db_attempts.get(key, 0)
            theirs = self.audit_totals.get(key, 0.0)
            if float(ours) != float(theirs):
                failures.append(
                    f"{key[0]}/{key[1]}: serving counted {ours}, "
                    f"audit recorded {theirs:g}"
                )
        return failures

    # ------------------------------------------------------------------
    # Determinism digest
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every outcome-affecting result of the run."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.outcome_codes).tobytes())
        h.update(np.ascontiguousarray(self.attempt_counts).tobytes())
        for event in self.reassignments:
            h.update(
                f"{event.time:.12g}|{event.site}|{event.old_read_quorum}|"
                f"{event.new_read_quorum}|{event.version}|{event.trigger};".encode()
            )
        h.update(f"{self.final_read_quorum}|{self.final_version}".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    @property
    def passed(self) -> bool:
        if self.aborted or self.violations:
            return False
        if not self.reconciled:
            return False
        if self.min_availability is not None and (
            self.availability < self.min_availability
        ):
            return False
        if self.max_p99 is not None:
            # No grant means no latency met the limit: NaN fails the gate.
            p99 = self.latency.get("p99", math.nan)
            if math.isnan(p99) or p99 > self.max_p99:
                return False
        return True

    @property
    def exit_code(self) -> int:
        """The serve exit contract: 0 clean, 1 SLO/invariant failure."""
        return 0 if self.passed else 1

    # ------------------------------------------------------------------
    def summary(self) -> str:
        lines = [
            "adaptive serving report",
            "=======================",
            f"requests       : {self.n_requests} over {self.n_sites} sites "
            f"(seed {self.seed}, scenario {self.scenario})",
            f"served         : {self.served}"
            + (f"  (ABORTED, {self.n_requests - self.served} unserved)"
               if self.aborted else ""),
            f"sim duration   : {self.sim_duration:.1f} s simulated, "
            f"{self.wall_seconds:.2f} s wall "
            f"({self.throughput:,.0f} req/s)",
            "",
            "outcomes",
        ]
        for name in OUTCOME_NAMES:
            count = self.outcomes.get(name, 0)
            if count:
                share = count / self.n_requests
                lines.append(f"  {name:<18} {count:>10}  ({share:6.2%})")
        lines.append("")
        lines.append(f"availability   : {self.availability:.4f} request-level, "
                     f"{self.attempt_availability:.4f} attempt-level (ACC)")
        p50 = self.latency.get("p50", math.nan)
        p99 = self.latency.get("p99", math.nan)
        lines.append(
            f"latency (sim)  : p50={p50:.3g}  p99={p99:.3g}  "
            f"max={self.latency.get('max', math.nan):.3g}"
        )
        lines.append(
            f"retries        : {self.retries_scheduled} scheduled, "
            f"{self.retries_exhausted} exhausted, {self.shed} shed, "
            f"{self.breaker_rejections} breaker-rejected "
            f"({self.breaker_trips} trips)"
        )
        lines.append(
            f"degradation    : read-only entered {self.read_only_entries}x "
            f"for {self.read_only_time:.1f} s simulated"
        )
        lines.append("")
        lines.append(
            f"reassignments  : {len(self.reassignments)} installed; final "
            f"q_r={self.final_read_quorum} (version {self.final_version})"
        )
        for event in self.reassignments:
            lines.append(
                f"  [t={event.time:8.1f}] q_r {event.old_read_quorum} -> "
                f"{event.new_read_quorum} at site {event.site} "
                f"(v{event.version}, {event.trigger})"
            )
        lines.append(
            f"watchdog       : {self.watchdog_ticks} ticks, "
            f"{self.watchdog_interventions} interventions"
        )
        recon = self.reconciliation_failures()
        lines.append(
            "reconciliation : exact (serving counts == audit totals)"
            if not recon else
            f"reconciliation : FAILED in {len(recon)} cells"
        )
        for failure in recon[:5]:
            lines.append(f"  {failure}")
        lines.append(
            f"invariants     : {len(self.violations)} violations"
            + ("" if not self.violations else " (FAIL)")
        )
        for violation in self.violations[:5]:
            lines.append(f"  {violation}")
        lines.append(f"digest         : {self.digest()[:16]}")
        lines.append(f"verdict        : {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

"""The adaptive quorum serving engine: one sim-time sequencer.

``repro serve`` is a long-running service in miniature: a stream of
client read/write requests hits a :class:`ReplicatedDatabase` while a
scripted chaos schedule breaks the network underneath, an online
density estimator watches component sizes, and a control loop installs
better quorum assignments through the QR protocol — with an invariant
monitor attached end-to-end.

**One sequencer.** The paper grants or denies each access from the
network state at its simulated instant (§2, QR in §2.2), so the service
is one deterministic loop. The request stream is precomputed
(:class:`~repro.serving.requests.RequestStream`) and taken a chunk at a
time in id order; the loop interleaves its arrivals with a sim-time
event heap (scripted faults, retry timers, control ticks, watchdog
ticks). Every outcome-affecting decision — shedding, breaker
transitions, retry backoff draws, degradation-mode changes,
reassignments — is keyed on simulated time only.

Heap ties at equal simulated time break by event kind (faults before
retries before control before watchdog) and then by insertion sequence,
and a heap event at an arrival's instant runs before the arrival, so the
processing order is a pure function of the configuration.
"""

from __future__ import annotations

import heapq
import math
import time as _walltime
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ReproError
from repro.faults.monitor import InvariantMonitor
from repro.protocols.adaptive import install_from_any, reassignment_decision
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.reassignment import QuorumReassignmentProtocol
from repro.protocols.workload_estimator import WorkloadEstimator
from repro.replication.database import ReplicatedDatabase
from repro.rng import stream_for
from repro.serving.breakers import BreakerBoard
from repro.serving.config import ServeConfig
from repro.serving.report import ReassignmentEvent, ServeReport, outcome_code
from repro.serving.requests import RequestStream
from repro.simulation.events import EventKind
from repro.telemetry.recorder import Telemetry, resolve
from repro.telemetry.spans import NULL_SPAN, SCOPE_SERVE, TraceContext

__all__ = ["AdaptiveQuorumService", "backoff", "run_serve"]

# Serving settings. No caller sets them, so they are module constants;
# a test that needs another value monkeypatches the constant.

#: Jittered exponential backoff (:func:`backoff`): tries per request,
#: including the first, and the first backoff, its growth factor, its
#: cap and the jitter band, in simulated seconds.
MAX_ATTEMPTS = 4
RETRY_BASE_DELAY = 0.5
RETRY_MULTIPLIER = 2.0
RETRY_MAX_DELAY = 8.0
RETRY_JITTER = 0.1
#: The hard per-request deadline, which doubles as its timeout: a retry
#: that cannot start before it is not scheduled, and the request times out.
RETRY_DEADLINE = 30.0
#: Max requests simultaneously waiting on a backoff; beyond it new
#: arrivals are shed with cause ``overload`` (explicit backpressure).
QUEUE_CAPACITY = 512
#: Simulated seconds between estimation/optimization ticks.
CONTROL_INTERVAL = 25.0
#: Observed simulated time before the density estimate is trusted.
MIN_OBSERVATION_TIME = 50.0
#: Required estimated availability gain before a reassignment.
IMPROVEMENT_THRESHOLD = 0.005
FORGETTING_FACTOR = 1.0
#: Watchdog cadence; a pending reassignment older than
#: ``STALL_THRESHOLD`` forces re-estimation (estimator reset).
WATCHDOG_INTERVAL = 60.0
STALL_THRESHOLD = 150.0
#: Requests the sequencer takes from the stream at a time: memory only,
#: never outcomes.
CHUNK_SIZE = 4_096

#: Substream index for the retry-backoff jitter stream.
_STREAM_RETRY = 201

# Heap event kinds, in tie-break priority order at equal simulated time.
_FAULT, _RETRY, _CONTROL, _WATCHDOG = 0, 1, 2, 3

_CODE_UNSERVED = outcome_code("unserved")
_CODE_GRANTED = outcome_code("granted")
_CODE_STALE_READ = outcome_code("stale_read")
_CODE_TIMEOUT = outcome_code("timeout")
_CODE_READ_ONLY = outcome_code("read_only")
_CODE_OVERLOAD = outcome_code("overload")
_CODE_CIRCUIT_OPEN = outcome_code("circuit_open")

#: Audit denial causes map 1:1 onto terminal outcome codes.
_CODE_BY_CAUSE = {
    "site_down": outcome_code("site_down"),
    "no_quorum": outcome_code("no_quorum"),
    "stale_assignment": outcome_code("stale_assignment"),
}

#: Latency buckets on the simulated clock (backoff-scale, not µs-scale).
_LATENCY_BUCKETS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 60.0)


def backoff(attempt: int, rng: np.random.Generator) -> float:
    """Backoff to wait after failed attempt number ``attempt`` (1-based).

    ``min(RETRY_BASE_DELAY * RETRY_MULTIPLIER ** (attempt - 1),
    RETRY_MAX_DELAY)``, scaled by one uniform draw from ``rng`` in
    ``[1 - RETRY_JITTER, 1 + RETRY_JITTER]``: the jitter decorrelates
    retry storms when many sites retry the same outage.
    """
    if attempt < 1:
        raise ReproError(f"attempt numbers are 1-based, got {attempt}")
    delay = min(RETRY_BASE_DELAY * RETRY_MULTIPLIER ** (attempt - 1),
                RETRY_MAX_DELAY)
    return delay * float(rng.uniform(1.0 - RETRY_JITTER, 1.0 + RETRY_JITTER))


def _latency_summary(granted: np.ndarray) -> Dict[str, float]:
    """The report's latency over the granted requests' latencies.

    count, mean and max, plus p50/p90/p99 as exact nearest-rank
    quantiles: the smallest granted latency whose empirical CDF reaches
    q, i.e. ``np.quantile(..., method="inverted_cdf")``. NaN everywhere
    when nothing was granted.
    """
    if granted.size == 0:
        return {"count": 0, "mean": math.nan, "p50": math.nan,
                "p90": math.nan, "p99": math.nan, "max": math.nan}
    p50, p90, p99 = np.quantile(granted, (0.5, 0.9, 0.99),
                                method="inverted_cdf").tolist()
    return {
        "count": float(granted.size),
        "mean": float(granted.mean()),
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "max": float(granted.max()),
    }


class _Pending:
    """One in-flight request between its first attempt and its outcome."""

    __slots__ = ("rid", "site", "is_read", "submit", "attempts")

    def __init__(self, rid: int, site: int, is_read: bool, submit: float) -> None:
        self.rid = rid
        self.site = site
        self.is_read = is_read
        self.submit = submit
        self.attempts = 0


class AdaptiveQuorumService:
    """One serving run: build it, then ``run()`` (or use run_serve)."""

    def __init__(self, config: ServeConfig, telemetry=None) -> None:
        self.config = config
        # Reconciliation requires THIS run's exact audit totals and
        # counters, so they go to a live recorder handed over explicitly,
        # else to a private one: the ambient recorder may span several
        # runs (a benchmark loop, a verification battery) and its
        # cumulative audit would never reconcile. Spans and phases have
        # no per-run reconciliation: they go to the recorder handed over,
        # else the ambient one (NULL when none is installed) — that is
        # how benchmark rounds accumulate their serve.* phase tables.
        explicit = telemetry is not None and telemetry.enabled
        tel = telemetry if explicit else Telemetry()
        self.telemetry = tel
        self._trace = resolve(telemetry)

        topology = config.topology
        self.n_sites = topology.n_sites
        self.qr = QuorumReassignmentProtocol(self.n_sites, config.initial_assignment)
        self.monitor = InvariantMonitor(record_snapshots=False, telemetry=tel)
        self.db = ReplicatedDatabase(
            topology,
            self.qr,
            initial_value=0,
            monitor=self.monitor,
            telemetry=tel,
        )
        self.stream = RequestStream(
            config.workload, config.n_requests, config.seed, CHUNK_SIZE
        )
        self.density = OnlineDensityEstimator(
            self.n_sites, topology.total_votes,
            forgetting_factor=FORGETTING_FACTOR,
        )
        self.workload_est = WorkloadEstimator(
            self.n_sites, forgetting_factor=FORGETTING_FACTOR
        )
        self.breakers = BreakerBoard(self.n_sites)
        self._retry_rng = stream_for(config.seed, _STREAM_RETRY)

        n = config.n_requests
        self._codes = np.full(n, _CODE_UNSERVED, dtype=np.int8)
        self._attempts = np.zeros(n, dtype=np.int16)
        #: Submission-to-grant time per request id; read where granted.
        self._latencies = np.zeros(n, dtype=np.float64)
        self._db_counts: Dict[Tuple[str, str], int] = {}

        metrics = tel.metrics
        # Filled once from ``_latencies`` at report time; the report's
        # quantiles are exact, computed from the same array.
        self._latency = metrics.histogram(
            "repro_serve_latency_seconds",
            "time from submission to grant, simulated seconds",
            buckets=_LATENCY_BUCKETS,
        )
        self._c_retry_attempts = metrics.counter(
            "repro_retry_attempts_total",
            "retry attempts scheduled, by op and denial cause",
        )
        self._c_retry_exhausted = metrics.counter(
            "repro_retry_exhausted_total",
            "accesses failed after their retry budget, by op and last cause",
        )

        # Sim-time sequencer state -------------------------------------
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self.now = 0.0
        self._last_obs_time = 0.0
        self._observed_time = 0.0
        self._waiting: Dict[int, _Pending] = {}
        self._aborted = False

        self._read_only = False
        self._read_only_since = 0.0
        self._read_only_entries = 0
        self._read_only_time = 0.0

        self._pending_target = None  # (QuorumAssignment, since_time)
        self._reassignments: List[ReassignmentEvent] = []
        self._watchdog_ticks = 0
        self._watchdog_interventions = 0
        self._retries_scheduled = 0
        self._retries_exhausted = 0
        self._shed = 0

        if config.fault_schedule is not None:
            for at, kind, target in config.fault_schedule.all_events(topology):
                self._push(at, _FAULT, (kind, target))
        self._push(CONTROL_INTERVAL, _CONTROL, None)
        self._push(WATCHDOG_INTERVAL, _WATCHDOG, None)
        self._update_mode()

    # ------------------------------------------------------------------
    # Sim-time plumbing
    # ------------------------------------------------------------------
    def _push(self, at: float, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, kind, self._seq, payload))

    def _advance(self, at: float) -> None:
        if at > self.now:
            self.db.advance_time(at - self.now)
            self.now = at

    def _flush_observation(self) -> None:
        """Time-weighted density observation of the interval just ended."""
        dt = self.now - self._last_obs_time
        if dt > 0:
            self.density.observe_all(self.db.tracker.vote_totals, weight=dt)
            self._observed_time += dt
        self._last_obs_time = self.now

    # ------------------------------------------------------------------
    # Network changes, degradation, invariants
    # ------------------------------------------------------------------
    def _apply_fault(self, kind: EventKind, target: int) -> None:
        trace = self._trace
        with trace.span("serve.fault.apply", kind=kind.name, target=target,
                        t=self.now), trace.phase("serve.fault"):
            self._flush_observation()
            if kind is EventKind.SITE_FAIL:
                self.db.fail_site(target)
            elif kind is EventKind.SITE_REPAIR:
                self.db.repair_site(target)
            else:
                link = self.db.topology.links[target]
                if kind is EventKind.LINK_FAIL:
                    self.db.fail_link(link.a, link.b)
                else:
                    self.db.repair_link(link.a, link.b)
            self._after_network_change()

    def _after_network_change(self) -> None:
        self.monitor.observe(self.now, self.db.tracker, self.qr)
        self._update_mode()
        if not self.monitor.ok:
            self._aborted = True

    def _update_mode(self) -> None:
        """Enter/leave read-only mode as write quorums vanish/return."""
        writable = bool(self.qr.grant_masks(self.db.tracker)[1].any())
        if not writable and not self._read_only:
            self._read_only = True
            self._read_only_since = self.now
            self._read_only_entries += 1
        elif writable and self._read_only:
            self._read_only = False
            self._read_only_time += self.now - self._read_only_since

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _admit(self, rid: int, at: float, site: int, is_read: bool) -> None:
        with self._trace.phase("serve.admit"):
            self._advance(at)
            self.workload_est.observe(site, is_read)
            if not self.breakers.allow(site, self.now):
                self._record(rid, _CODE_CIRCUIT_OPEN, 0)
                return
            if self._read_only and not is_read:
                self._record(rid, _CODE_READ_ONLY, 0)
                return
            if len(self._waiting) >= QUEUE_CAPACITY:
                self._shed += 1
                self._record(rid, _CODE_OVERLOAD, 0)
                return
            pending = _Pending(rid, site, is_read, self.now)
        self._attempt(pending)

    def _attempt(self, pending: _Pending) -> None:
        with self._trace.phase("serve.attempt"):
            pending.attempts += 1
            site = pending.site
            if pending.is_read:
                result = self.db.submit_read(site)
                op = "read"
            else:
                result = self.db.submit_write(site, pending.rid)
                op = "write"
            # The refined cause (incl. no_quorum -> stale_assignment),
            # exactly as the audit log recorded it.
            cause = result.outcome.value
            key = (op, cause)
            self._db_counts[key] = self._db_counts.get(key, 0) + 1

            if result.granted:
                self.breakers.on_success(site)
                self._latencies[pending.rid] = self.now - pending.submit
                self._record(pending.rid, _CODE_GRANTED, pending.attempts)
                return

            if pending.attempts < MAX_ATTEMPTS:
                delay = backoff(pending.attempts, self._retry_rng)
                if self.now + delay - pending.submit < RETRY_DEADLINE:
                    self._retries_scheduled += 1
                    self._c_retry_attempts.inc(op=op, cause=cause)
                    self._waiting[pending.rid] = pending
                    self._push(self.now + delay, _RETRY, pending)
                    return
                self._finish_denied(pending, op, cause, _CODE_TIMEOUT)
                return
            self._finish_denied(pending, op, cause, _CODE_BY_CAUSE[cause])

    def _finish_denied(self, pending: _Pending, op: str, cause: str,
                       code: int) -> None:
        self._retries_exhausted += 1
        self._c_retry_exhausted.inc(op=op, cause=cause)
        self.breakers.on_failure(pending.site, self.now)
        if pending.is_read:
            # Graceful degradation: serve the newest component-local
            # copy, explicitly marked stale (never counted as granted).
            if self.db.peek_newest(pending.site) is not None:
                code = _CODE_STALE_READ
        self._record(pending.rid, code, pending.attempts)

    def _record(self, rid: int, code: int, attempts: int) -> None:
        self._codes[rid] = code
        self._attempts[rid] = attempts

    # ------------------------------------------------------------------
    # Adaptive control loop
    # ------------------------------------------------------------------
    def _control_tick(self) -> None:
        trace = self._trace
        with trace.span("serve.control.tick", t=self.now), \
                trace.phase("serve.control"):
            self._flush_observation()
            self._maybe_reassign()
            self._push(self.now + CONTROL_INTERVAL, _CONTROL, None)

    def _maybe_reassign(self) -> None:
        """The §4.3 decision, once enough simulated time was observed."""
        if self._observed_time < MIN_OBSERVATION_TIME:
            return
        decision = reassignment_decision(
            self.qr, self.db.tracker, self.density, self.workload_est,
            IMPROVEMENT_THRESHOLD)
        if decision is None:
            return
        target, installed = decision
        if target is not None and installed is None:
            # Wanted to reassign, could not (installation rule): remember
            # the intent so the watchdog can detect the stall.
            if self._pending_target is None or self._pending_target[0] != target:
                self._pending_target = (target, self.now)
            return
        if installed is not None:
            self._installed(target, installed, "control")
        self._pending_target = None

    def _installed(self, target, installed, trigger: str) -> None:
        site, old = installed
        self._reassignments.append(ReassignmentEvent(
            time=self.now, site=site, old_read_quorum=old.read_quorum,
            new_read_quorum=target.read_quorum,
            version=self.qr.max_version(), trigger=trigger))
        self._after_network_change()

    def _watchdog_tick(self) -> None:
        with self._trace.phase("serve.watchdog"):
            self._watchdog_ticks += 1
            pending = self._pending_target
            if pending is not None and self.now - pending[1] >= STALL_THRESHOLD:
                self._watchdog_interventions += 1
                self._flush_observation()
                target = pending[0]
                installed = install_from_any(self.qr, self.db.tracker, target)
                if installed is not None:
                    self._installed(target, installed, "watchdog")
                else:
                    # Still uninstallable: the evidence that produced the
                    # target is stale too. Force re-estimation from
                    # scratch so the next control tick reasons from
                    # current conditions.
                    self.density.reset()
                    self._observed_time = 0.0
                self._pending_target = None
            self._push(self.now + WATCHDOG_INTERVAL, _WATCHDOG, None)

    # ------------------------------------------------------------------
    # The sequencer
    # ------------------------------------------------------------------
    def _sequence(self) -> None:
        stream = self.stream
        next_chunk = 0
        arrivals: deque = deque()
        while not self._aborted:
            if not arrivals and next_chunk < stream.n_chunks:
                arrivals.extend(stream.chunk(next_chunk).rows())
                next_chunk += 1
            head_time = arrivals[0][1] if arrivals else math.inf
            heap = self._heap
            while heap and heap[0][0] <= head_time:
                if self._aborted:
                    break
                if head_time == math.inf and not self._waiting:
                    break  # drained: no arrivals left, no retries in flight
                at, kind, _seq, payload = heapq.heappop(heap)
                self._advance(at)
                if kind == _FAULT:
                    self._apply_fault(*payload)
                elif kind == _RETRY:
                    self._waiting.pop(payload.rid, None)
                    self._attempt(payload)
                elif kind == _CONTROL:
                    self._control_tick()
                else:
                    self._watchdog_tick()
            if self._aborted or not arrivals:
                break
            rid, at, site, is_read = arrivals.popleft()
            self._admit(rid, at, site, is_read)

    def run(self) -> ServeReport:
        started = _walltime.perf_counter()
        # Serve-scope trace context: span ids derive from
        # (seed, "serve", ordinal), and the sequencer opens spans in
        # sim-time order, so the exported tree is a function of the seed.
        trace = self._trace
        serve_ctx = TraceContext(self.config.seed, SCOPE_SERVE, 0)
        with (trace.spans.scoped(serve_ctx) if trace.enabled else NULL_SPAN), \
                trace.span("serve.run", scenario=self.config.scenario,
                           n_requests=self.config.n_requests,
                           seed=self.config.seed):
            self._sequence()
            return self._build_report(_walltime.perf_counter() - started)

    # ------------------------------------------------------------------
    # Final reconciled snapshot
    # ------------------------------------------------------------------
    def _final_assignment(self):
        newest = int(np.argmax(self.qr.site_version))
        return self.qr.site_assignment[newest]

    def _build_report(self, wall_seconds: float) -> ServeReport:
        if self._read_only:
            self._read_only_time += self.now - self._read_only_since
            self._read_only_since = self.now
        self._flush_observation()

        from repro.serving.report import OUTCOME_NAMES

        counts = np.bincount(self._codes, minlength=len(OUTCOME_NAMES))
        outcomes = {
            name: int(counts[code])
            for code, name in enumerate(OUTCOME_NAMES)
            if counts[code]
        }
        granted = self._latencies[self._codes == _CODE_GRANTED]
        self._latency.observe_many(granted)
        metrics = self.telemetry.metrics
        served_counter = metrics.counter(
            "repro_serve_requests_total", "serving-layer request outcomes"
        )
        for name, count in outcomes.items():
            served_counter.inc(count, outcome=name)
        if self._reassignments:
            reassign_counter = metrics.counter(
                "repro_serve_reassignments_total",
                "quorum reassignments installed by the serving control loop",
            )
            for event in self._reassignments:
                reassign_counter.inc(trigger=event.trigger)
        if self._watchdog_interventions:
            metrics.counter(
                "repro_serve_watchdog_interventions_total",
                "watchdog actions on stalled reassignments",
            ).inc(self._watchdog_interventions)
        metrics.gauge(
            "repro_serve_read_only", "1 while the service is read-only"
        ).set(1.0 if self._read_only else 0.0)

        final = self._final_assignment()
        report = ServeReport(
            n_requests=self.config.n_requests,
            n_sites=self.n_sites,
            seed=self.config.seed,
            scenario=self.config.scenario,
            outcome_codes=self._codes,
            attempt_counts=self._attempts,
            outcomes=outcomes,
            db_attempts=dict(self._db_counts),
            audit_totals=dict(self.telemetry.audit.totals),
            latency=_latency_summary(granted),
            retries_scheduled=self._retries_scheduled,
            retries_exhausted=self._retries_exhausted,
            shed=self._shed,
            breaker_trips=self.breakers.trips,
            breaker_rejections=self.breakers.rejections,
            reassignments=list(self._reassignments),
            watchdog_ticks=self._watchdog_ticks,
            watchdog_interventions=self._watchdog_interventions,
            read_only_entries=self._read_only_entries,
            read_only_time=self._read_only_time,
            final_read_quorum=final.read_quorum,
            final_version=self.qr.max_version(),
            estimator_weight=self.density.total_weight,
            violations=[str(v) for v in self.monitor.violations],
            aborted=self._aborted,
            wall_seconds=wall_seconds,
            sim_duration=self.now,
        )
        return report


def run_serve(config: ServeConfig, telemetry=None) -> ServeReport:
    """Run one serving campaign to completion."""
    return AdaptiveQuorumService(config, telemetry).run()

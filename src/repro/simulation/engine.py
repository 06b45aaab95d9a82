"""The discrete-event simulation engine.

One *batch* reproduces the paper's procedure: reset the network to the
all-up initial state, run a warm-up period, then measure availability
over a long access stream. A batch is **trace-first**: its failure
history depends on nothing the protocol or the accesses do, so
:meth:`FailureProcesses.history` generates it ahead of the accounting and
:class:`HistoryWalk`, the one epoch loop (the sharded engine runs it
too), drives the network through it. The engine advances epoch by epoch
(an epoch is the interval between consecutive failure/repair events),
asking the replica-control protocol for its per-site grant masks once per
epoch and accounting for the epoch's accesses in bulk — statistically
identical to per-access event simulation because the access process is
Poisson (splitting/superposition), but orders of magnitude faster.

Deviation from the paper, recorded in DESIGN.md: the paper measures for a
fixed *count* of accesses (1 000 000); we measure for the fixed simulated
*time* that carries that many accesses in expectation. For steady-state
means the two stopping rules estimate the same quantity; the batch-means
confidence interval absorbs the difference.

The engine reports, per batch:

- ACC (the paper's availability): granted / submitted accesses, split by
  reads and writes;
- SURV for reads and for writes: fraction of *time* some site could
  perform the access — the paper's alternative metric (section 3);
- the empirical density matrices ``f_i`` in both time-weighted and
  access-weighted forms, which feed the Figure-1 algorithm exactly as
  the paper's on-line estimation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.connectivity.components import batched_vote_totals, contracts_path
from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.errors import BatchExecutionError
from repro.protocols.base import ReplicaControlProtocol
from repro.protocols.estimator import OnlineDensityEstimator
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.rng import spawn, stream_for
from repro.simulation.config import SimulationConfig
from repro.simulation.events import (
    EVENT_KINDS,
    SOURCE_CHAOS,
    SOURCE_STOCHASTIC,
    EventQueue,
    appliers,
)
from repro.simulation.processes import FailureProcesses
from repro.simulation.trace import NetworkTrace
from repro.telemetry import audit as _audit
from repro.telemetry.recorder import NULL as _NULL_TELEMETRY
from repro.telemetry.recorder import resolve as _resolve_telemetry

__all__ = ["BatchResult", "HistoryWalk", "SimulationEngine", "simulate_batch"]

#: Observer signature: called after every applied topology event.
ChangeObserver = Callable[[float, ComponentTracker, ReplicaControlProtocol], None]


@dataclass
class BatchResult:
    """Measurements from one simulated batch."""

    #: Submitted / granted access volumes (floats: expected-value mode
    #: produces fractional volumes).
    reads_submitted: float
    reads_granted: float
    writes_submitted: float
    writes_granted: float
    #: Fraction of measured time some site could read / write.
    surv_read: float
    surv_write: float
    #: Measured simulated time and epoch/event counts (observability).
    measured_time: float
    n_epochs: int
    n_events: int
    #: Empirical per-site densities over component vote totals.
    density_time: OnlineDensityEstimator
    density_access: OnlineDensityEstimator
    #: Time-weighted histogram of the LARGEST component's vote total —
    #: the distribution the paper's footnote 3 says to substitute into
    #: the Figure-1 algorithm to optimize for SURV instead of ACC.
    max_votes_time: np.ndarray = field(default_factory=lambda: np.zeros(1))
    #: Recorded failure history (present when the engine was constructed
    #: with ``record_trace=True``); replayable via simulation.trace.
    trace: Optional["NetworkTrace"] = None

    @property
    def accesses_submitted(self) -> float:
        return self.reads_submitted + self.writes_submitted

    @property
    def accesses_granted(self) -> float:
        return self.reads_granted + self.writes_granted

    @property
    def availability(self) -> float:
        """ACC: fraction of all submitted accesses granted."""
        total = self.accesses_submitted
        return self.accesses_granted / total if total > 0 else 0.0

    @property
    def read_availability(self) -> float:
        return self.reads_granted / self.reads_submitted if self.reads_submitted > 0 else 0.0

    @property
    def write_availability(self) -> float:
        return (
            self.writes_granted / self.writes_submitted
            if self.writes_submitted > 0
            else 0.0
        )


#: A walked block of history rows at rest: 14 bytes an event.
_ROW_DTYPE = np.dtype(
    [("time", "f8"), ("kind", "u1"), ("target", "i4"), ("chaos", "?")])


class HistoryWalk:
    """One batch's failure history: primed, generated, walked epoch by epoch.

    ``config`` is a :class:`SimulationConfig` or a ``ShardConfig``;
    ``network`` a :class:`NetworkState` or anything with its four
    fail/repair methods (a stationary start fails the sampled down
    components in it). Walked blocks are kept as compact arrays, so that
    :meth:`record_into` can say what was applied without a tuple per event.
    """

    def __init__(self, config, network, failure_rng, schedule=None,
                 telemetry=_NULL_TELEMETRY) -> None:
        topo = config.topology
        queue = EventQueue()
        processes = FailureProcesses(
            topo,
            config.mean_time_to_failure,
            config.mean_time_to_repair,
            seed=failure_rng,
            fallible_sites=config.fallible_sites,
            fallible_links=config.fallible_links,
        )
        if schedule is not None:
            # Scripted chaos: what the schedule owns leaves the stochastic set.
            processes.deactivate(*schedule.owned_components(topo))
        with telemetry.span("engine.prime", initial_state=config.initial_state):
            if config.initial_state == "stationary":
                site_up, link_up = processes.prime_stationary(queue)
                for site in np.nonzero(~site_up)[0]:
                    network.fail_site(int(site))
                for link in np.nonzero(~link_up)[0]:
                    network.fail_link(int(link))
            else:
                processes.prime(queue)
        if schedule is not None:
            with telemetry.span("engine.apply_schedule"):
                schedule.prime(queue, topo)
        #: The batch measures ``[warmup_end, horizon)``.
        self.warmup_end = config.warmup_time
        self.horizon = self.warmup_end + config.batch_time
        self._blocks = processes.history(queue, self.horizon)
        self._apply = appliers(network)
        self._walked: List[np.ndarray] = []
        self._block: List[tuple] = []
        self._at = 0

    @property
    def applied(self) -> int:
        """Events applied to the network so far."""
        return sum(map(len, self._walked)) + self._at

    def record_into(self, trace: NetworkTrace) -> None:
        """Append every applied event to ``trace``."""
        rows = [row for block in self._walked for row in block.tolist()]
        rows += self._block[:self._at]
        trace.events.extend(
            (time, EVENT_KINDS[code].value, target) for time, code, target, _ in rows)
        trace.sources.extend(
            SOURCE_CHAOS if chaos else SOURCE_STOCHASTIC for *_, chaos in rows)

    def blocks(self) -> Iterator[Tuple[List[tuple], np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(block, rows, edges, applied)`` per block of the history.

        ``block`` is the block's rows as tuples and ``rows`` the same as one
        array. Epoch ``i`` of the block is ``[edges[i], edges[i + 1])``:
        the first starts at the previous block's last instant (0 for the
        first block), the others at each instant of this block, and a last,
        empty block carries the epoch that ends at the horizon. An epoch is
        split where the warm-up ends (:func:`_epoch_edges`). It begins
        after ``rows[:applied[i]]`` are applied. The consumer applies a
        block's events; a block is kept as walked once the next is asked
        for, and ``_at`` holds the applied prefix of the block in hand.
        """
        start = 0.0
        for block in self._blocks:
            rows = np.array(block, dtype=_ROW_DTYPE)
            times = rows["time"]
            instants = times[np.append(times[1:] != times[:-1], True)]
            edges = _epoch_edges(start, instants, self.warmup_end)
            applied = np.searchsorted(times, edges, side="right")
            applied[0] = 0
            self._block, self._at = block, 0
            yield block, rows, edges, applied
            self._walked.append(rows)
            self._block, self._at = [], 0
            start = float(instants[-1])
        edges = _epoch_edges(start, np.array([self.horizon]), self.warmup_end)
        yield [], np.empty(0, dtype=_ROW_DTYPE), edges, np.zeros(edges.shape, np.intp)

    def catch_up(self, count: int) -> None:
        """Apply every walked event and the first ``count`` of the block in
        hand to the network, which a walk accounted without applying
        (:meth:`SimulationEngine._account_chunks`) left as primed."""
        apply = self._apply
        for rows in self._walked:
            for _, code, target, _ in rows.tolist():
                apply[code](target)
        at = 0
        try:
            while at < count:
                _, code, target, _ = self._block[at]
                apply[code](target)
                at += 1
        finally:
            self._at = at

    def epochs(self) -> Iterator[Tuple[float, float, Optional[List[tuple]]]]:
        """Yield ``(start, end, events)`` for every epoch of ``[0, horizon)``,
        applying each instant's events to the network as it goes.

        ``events`` are the rows applied at ``start``, an instant's
        together: ``None`` for the first epoch, empty after the warm-up
        split.
        """
        apply = self._apply
        events = None
        for block, _, edges, applied in self.blocks():
            edges, applied = edges.tolist(), applied.tolist()
            at = 0
            for i in range(1, len(edges)):
                yield edges[i - 1], edges[i], events
                try:
                    while at < applied[i]:
                        _, code, target, _ = block[at]
                        apply[code](target)
                        at += 1
                finally:
                    self._at = at  # the applied prefix, also if an event raised
                events = block[applied[i - 1]:at]


def _flips(base: np.ndarray, component: np.ndarray, now_up: np.ndarray) -> np.ndarray:
    """Which rows change their component's state.

    Row ``r`` sets ``component[r]`` to ``now_up[r]``, and a component no
    earlier row set holds its ``base`` value. A stochastic event always
    flips its component; a scripted one need not.
    """
    order = np.argsort(component, kind="stable")
    ordered, value = component[order], now_up[order]
    before = base[ordered]
    again = ordered[1:] == ordered[:-1]
    before[1:][again] = value[:-1][again]
    flips = np.empty_like(value)
    flips[order] = value != before
    return flips


def _masks_after(base: np.ndarray, component: np.ndarray, flips: np.ndarray,
                 at: int, counts: np.ndarray) -> np.ndarray:
    """Component up-masks after each prefix ``rows[:c]``, ``c`` in ``counts``.

    ``base`` holds the masks after ``rows[:at]``; ``counts`` ascend from
    ``at``. Each flipping row (:func:`_flips`) toggles its component in
    the first state it reaches, and one running parity down the states
    carries every toggle forward.
    """
    k, m = counts.shape[0], base.shape[0]
    rows = np.flatnonzero(flips[at:counts[-1]])
    rows += at
    toggles = np.zeros(k * m, dtype=np.uint8)
    np.bitwise_xor.at(
        toggles, np.searchsorted(counts, rows, side="right") * m + component[rows], 1)
    return base ^ np.bitwise_xor.accumulate(toggles.reshape(k, m), axis=0).view(bool)


def _epoch_edges(start: float, instants: np.ndarray, warmup_end: float) -> np.ndarray:
    """The edges of the epochs from ``start`` through ``instants``.

    An epoch ends at the next instant (an event time, or the horizon),
    and the one that straddles the warm-up end is split there, so that
    its measured part is accounted exactly. ``instants`` ascend and all
    exceed ``start``, except that the first may equal a ``start`` of 0:
    events at time 0 end an empty first epoch.
    """
    edges = np.concatenate(([start], instants))
    if start < warmup_end < edges[-1]:
        at = int(np.searchsorted(edges, warmup_end))
        if edges[at] != warmup_end:
            edges = np.insert(edges, at, warmup_end)
    return edges


#: Most links a topology may have for its batches to be labelled a chunk of
#: epochs at a time (:func:`labels_in_chunks`): the measured crossover.
#: Whole ``expected`` batches of a 101-site ring plus chords at the paper's
#: parameters, 27 000 accesses after a 3 000-access warm-up (CPU µs per
#: measured epoch, generation included, tracker loop vs chunks, best of 5,
#: two runs, 2-core x86-64): 101 links 15.2 vs 5.1, 117 links 17.2 vs 5.3,
#: 229 links 11.7 vs 7.1, 261 links 10.4-10.6 vs 7.8-7.9, 301 links
#: 10.0-11.6 vs 8.6-8.9, 321 links 10.0-10.8 vs 9.1-9.3, 341 links 9.7-10.3
#: vs 9.6-9.8, 357 links 10.0-10.2 vs 10.3-10.4. The tracker gets cheaper
#: per epoch as chords keep components whole, the labelling dearer per
#: state, and they cross between 341 and 357 links: the paper's rings with
#: up to 16 chords take the chunks, topology 256 (357 links) the tracker.
CHUNK_LINK_LIMIT = 340


def labels_in_chunks(protocol: ReplicaControlProtocol, topology) -> bool:
    """Whether a batch of ``protocol`` on ``topology`` may skip the tracker.

    It may when its grants depend on component vote totals alone: static
    quorum consensus (a subclass too, unless it overrides ``grant_masks``
    or ``on_network_change`` or learns from epochs) for the network's
    ``T``, on a topology whose path the block labeller contracts and
    that has at most :data:`CHUNK_LINK_LIMIT` links. The engine also
    needs no change observer and disabled telemetry, both of which read
    the tracker.
    """
    kind = type(protocol)
    return (isinstance(protocol, QuorumConsensusProtocol)
            and kind.grant_masks is QuorumConsensusProtocol.grant_masks
            and kind.on_network_change is ReplicaControlProtocol.on_network_change
            and getattr(protocol, "record_epoch", None) is None
            and protocol.assignment.total_votes == topology.total_votes
            and topology.n_links <= CHUNK_LINK_LIMIT
            and contracts_path(topology))


class SimulationEngine:
    """Runs batches of the paper's simulation for one protocol."""

    def __init__(
        self,
        config: SimulationConfig,
        protocol: ReplicaControlProtocol,
        change_observer: Optional[ChangeObserver] = None,
        record_trace: bool = False,
        telemetry: Optional[object] = None,
    ) -> None:
        self.config = config
        self.protocol = protocol
        self.change_observer = change_observer
        self.record_trace = record_trace
        #: Telemetry recorder (DESIGN.md §7). Defaults to the current
        #: module-level recorder, which is the no-op null recorder unless
        #: one was activated; the disabled path costs a single boolean
        #: check per instrumentation site.
        self.telemetry = _resolve_telemetry(telemetry)
        bind = getattr(protocol, "bind_telemetry", None)
        if bind is not None:
            bind(self.telemetry)

    # ------------------------------------------------------------------
    def run_batch(self, batch_index: int) -> BatchResult:
        """Simulate warm-up plus one measured batch.

        Each batch gets independent random streams derived from
        ``(config.seed, batch_index)``, so results do not depend on how
        many batches run or in what order.
        """
        tel = self.telemetry
        tel.start_batch(batch_index)
        with tel.span("engine.run_batch", batch=batch_index,
                      protocol=self.protocol.name):
            return self._run_batch(batch_index)

    def _run_batch(self, batch_index: int) -> BatchResult:
        cfg = self.config
        topo = cfg.topology
        batch_seed = stream_for(cfg.seed, batch_index) if cfg.seed is not None else None
        # Three substreams, the third unused since fault schedules stopped
        # drawing randomness: spawning three keeps every pinned history
        # bitwise by construction, whatever spawn does with the count.
        failure_rng, access_rng, _ = spawn(batch_seed, 3)

        state = NetworkState(topo)
        sampled = cfg.accounting == "sampled"
        workload = cfg.workload
        ledger = _EpochLedger(topo.n_sites, topo.total_votes)

        # Everything the protocol or the schedule runs is inside the try,
        # set-up included, so any failure quarantines the batch. The walk
        # keeps what it applied: a batch that dies mid-way leaves in a
        # BatchExecutionError carrying a replayable fault history (one
        # that dies before the walk is primed carries none). A trace is
        # only *returned* to a caller that opted in via record_trace.
        walk = trace = None
        try:
            self.protocol.reset()
            walk = HistoryWalk(cfg, state, failure_rng, cfg.fault_schedule,
                               self.telemetry)
            trace = NetworkTrace.empty(topo, state)
            if (self.change_observer is None and not self.telemetry.enabled
                    and labels_in_chunks(self.protocol, topo)):
                self._account_chunks(walk, state, sampled, workload,
                                     access_rng, ledger)
            else:
                tracker = ComponentTracker(state)
                self.protocol.on_network_change(tracker)
                self._measure_loop(
                    walk, state, tracker, sampled, workload, access_rng, ledger)
            # The last, partially filled chunk: inside the try so that a
            # validation failure still quarantines with the trace.
            ledger.flush()
        except Exception as exc:
            if trace is not None:
                walk.record_into(trace)
            raise BatchExecutionError(
                f"batch {batch_index} aborted: {type(exc).__name__}: {exc}",
                batch_index=batch_index,
                sim_time=None if trace is None else trace.duration(),
                seed=cfg.seed,
                trace=trace,
                snapshot=_failure_snapshot(state),
            ) from exc

        if self.record_trace:
            walk.record_into(trace)
        measured_time = walk.horizon - walk.warmup_end
        (reads_submitted, writes_submitted, reads_granted, writes_granted,
         surv_read_time, surv_write_time) = ledger.sums.tolist()
        return BatchResult(
            reads_submitted=reads_submitted,
            reads_granted=reads_granted,
            writes_submitted=writes_submitted,
            writes_granted=writes_granted,
            surv_read=surv_read_time / measured_time if measured_time > 0 else 0.0,
            surv_write=surv_write_time / measured_time if measured_time > 0 else 0.0,
            measured_time=measured_time,
            n_epochs=ledger.n_epochs,
            n_events=ledger.n_events,
            density_time=ledger.density_time,
            density_access=ledger.density_access,
            max_votes_time=ledger.max_votes_time,
            trace=trace if self.record_trace else None,
        )

    # ------------------------------------------------------------------
    def _account_chunks(
        self,
        walk: HistoryWalk,
        state: NetworkState,
        sampled: bool,
        workload,
        access_rng,
        ledger: "_EpochLedger",
    ) -> None:
        """Account every measured epoch of the walk without a tracker.

        For each piece of at most ``_LEDGER_CHUNK`` measured epochs of a
        history block, one running parity of the events that flip a
        component gives every epoch's site and link masks
        (:func:`_masks_after`), one labelling call their component vote
        totals, and the grants are ``totals >= q_r`` and ``totals >= q_w``;
        ``sampled`` draws each epoch's accesses in epoch order, as the
        tracker loop does.
        The network is left as primed; a batch that dies replays onto it
        what the tracker loop would have applied by then
        (:meth:`HistoryWalk.catch_up`), an event the network rejects
        included.
        """
        topo = state.topology
        n = topo.n_sites
        assignment = self.protocol.assignment
        q_r, q_w = assignment.read_quorum, assignment.write_quorum
        phase_at = getattr(workload, "at", None)
        warmup_end = walk.warmup_end
        # A row's component by kind code (sites, then links), and its bound.
        offset = np.array([0, 0, n, n])
        bound = np.array([n, n, topo.n_links, topo.n_links])
        up = np.concatenate((state.site_up, state.link_up))
        applied_at_death = 0
        try:
            for _, rows, edges, applied in walk.blocks():
                applied_at_death = 0
                ledger.n_events += rows.shape[0]
                kind, target = rows["kind"], rows["target"]
                component = target + offset[kind]
                rejected = np.flatnonzero(target >= bound[kind])
                if rejected.shape[0]:
                    # Only the epochs before the rejected event's instant run.
                    stop = int(np.searchsorted(edges, rows["time"][rejected[0]]))
                    edges, applied = edges[:stop + 1], applied[:stop + 1]
                    component = component[:rejected[0]]
                flips = _flips(up, component, (kind[:component.shape[0]] & 1) > 0)
                starts, ends = edges[:-1], edges[1:]
                measured = np.flatnonzero((ends > starts) & (starts >= warmup_end))
                at = 0
                for first in range(0, measured.shape[0], _LEDGER_CHUNK):
                    epochs = measured[first:first + _LEDGER_CHUNK]
                    counts = applied[epochs]
                    masks = _masks_after(up, component, flips, at, counts)
                    up, at = masks[-1], int(counts[-1])
                    totals = batched_vote_totals(topo, masks[:, :n], masks[:, n:])
                    read_masks, write_masks = totals >= q_r, totals >= q_w
                    durations = ends[epochs] - starts[epochs]
                    # Phase times are measured from the warm-up end.
                    active = [workload] * epochs.shape[0] if phase_at is None else [
                        phase_at(now - warmup_end) for now in starts[epochs].tolist()]
                    if sampled:
                        reads = np.empty(totals.shape)
                        writes = np.empty(totals.shape)
                        for j, (duration, count) in enumerate(
                                zip(durations.tolist(), counts.tolist())):
                            applied_at_death = count
                            reads[j], writes[j] = active[j].sample_epoch(
                                duration, access_rng)
                        ledger.settle(durations, totals, reads, writes,
                                      read_masks, write_masks)
                        continue
                    # Expected volumes: a run of epochs under one phase at a time.
                    cuts = [j for j in range(1, len(active))
                            if active[j] is not active[j - 1]]
                    for lo, hi in zip([0] + cuts, cuts + [len(active)]):
                        reads, writes = active[lo].expected_epochs(durations[lo:hi])
                        ledger.settle(durations[lo:hi], totals[lo:hi], reads,
                                      writes, read_masks[lo:hi], write_masks[lo:hi])
                if rejected.shape[0]:
                    applied_at_death = int(rejected[0]) + 1
                    break
                up = _masks_after(up, component, flips, at,
                                  np.array([rows.shape[0]]))[-1]
            else:
                return
        except Exception:
            walk.catch_up(applied_at_death)
            raise
        walk.catch_up(applied_at_death)  # raises at the rejected event

    # ------------------------------------------------------------------
    def _measure_loop(
        self,
        walk: HistoryWalk,
        state: NetworkState,
        tracker: ComponentTracker,
        sampled: bool,
        workload,
        access_rng,
        ledger: "_EpochLedger",
    ) -> None:
        """Account every measured epoch of the walk."""
        # Telemetry is resolved once; the disabled path adds exactly one
        # boolean test per instrumentation site (CI smoke-checks <5%).
        instruments = (
            _EngineInstruments(self.telemetry) if self.telemetry.enabled else None
        )
        # PhasedWorkload exposes .at(time); plain workloads are constant.
        phase_at = getattr(workload, "at", None)
        # Self-tuning protocols (AdaptiveQuorumProtocol) learn from the
        # same epoch observations the engine accounts with.
        epoch_hook = getattr(self.protocol, "record_epoch", None)
        warmup_end = walk.warmup_end
        for now, epoch_end, events in walk.epochs():
            if events is not None:
                # The network just changed (or warm-up just ended).
                ledger.n_events += len(events)
                if instruments is None:
                    self.protocol.on_network_change(tracker)
                else:
                    for _, code, _, chaos in events:
                        instruments.events.inc(
                            kind=EVENT_KINDS[code].value,
                            source=SOURCE_CHAOS if chaos else SOURCE_STOCHASTIC)
                    wall0 = perf_counter()
                    self.protocol.on_network_change(tracker)
                    instruments.recompute_seconds.observe(perf_counter() - wall0)
                if self.change_observer is not None:
                    self.change_observer(now, tracker, self.protocol)

            duration = epoch_end - now
            if duration > 0 and now >= warmup_end:
                vote_totals = tracker.vote_totals
                if instruments is None:
                    read_mask, write_mask = self.protocol.grant_masks(tracker)
                else:
                    wall0 = perf_counter()
                    read_mask, write_mask = self.protocol.grant_masks(tracker)
                    instruments.grant_seconds.observe(perf_counter() - wall0)
                # Phase times are measured from the warm-up end so
                # schedules are independent of the warm-up length.
                active = workload if phase_at is None else phase_at(now - warmup_end)
                if sampled:
                    reads, writes = active.sample_epoch(duration, access_rng)
                    ledger.record(duration, vote_totals, reads, writes,
                                  read_mask, write_mask)
                else:
                    # Expected volumes are a function of (duration, phase):
                    # the ledger derives a whole chunk's at flush, and the
                    # per-epoch form is paid only where something reads it.
                    ledger.record_expected(duration, vote_totals, active,
                                           read_mask, write_mask)
                    if epoch_hook is not None or instruments is not None:
                        reads, writes = active.expected_epoch(duration)
                if epoch_hook is not None:
                    epoch_hook(tracker, duration, reads=reads, writes=writes)
                if instruments is not None:
                    instruments.account_epoch(
                        now, duration, reads, writes, read_mask, write_mask,
                        tracker, state, self.protocol,
                    )


class _EngineInstruments:
    """Pre-registered metric handles plus the per-epoch audit attributor.

    Only constructed when telemetry is enabled, so the disabled engine
    never touches a registry. The audit attribution decomposes the bulk
    epoch accounting by denial cause: ``site_down`` (the submitting site
    itself is down), ``stale_assignment`` (the site's component holds an
    assignment version older than the newest installed one — versioned
    protocols only), and ``no_quorum`` (everything else). The per-cause
    volumes sum exactly to the epoch's denied access volume, which is
    what makes the run's ACC reconcile against the audit log.
    """

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self.epochs = metrics.counter(
            "repro_engine_epochs_total", "measured epochs accounted")
        self.events = metrics.counter(
            "repro_engine_events_total", "topology events applied, by kind/source")
        self.accesses = metrics.counter(
            "repro_engine_accesses_total", "access volume by op and decision")
        self.epoch_sim_time = metrics.histogram(
            "repro_engine_epoch_sim_time", "simulated duration of measured epochs")
        self.grant_seconds = metrics.histogram(
            "repro_engine_grant_mask_seconds",
            "wall time of protocol grant-mask evaluation (quorum checks)")
        self.recompute_seconds = metrics.histogram(
            "repro_engine_network_change_seconds",
            "wall time of post-event component recomputation / protocol update")

    # ------------------------------------------------------------------
    def account_epoch(self, now, duration, reads, writes, read_mask,
                      write_mask, tracker, state, protocol) -> None:
        self.epochs.inc()
        self.epoch_sim_time.observe(duration)

        site_up = state.site_up
        vote_totals = tracker.vote_totals
        comp_version, newest = self._component_versions(tracker, protocol)
        assignment = getattr(protocol, "assignment", None)
        q_r = getattr(assignment, "read_quorum", None)
        q_w = getattr(assignment, "write_quorum", None)
        audit = self.telemetry.audit

        for op, volumes, mask in (
            ("read", reads, read_mask),
            ("write", writes, write_mask),
        ):
            granted_vol = float(volumes[mask].sum())
            if granted_vol > 0:
                self.accesses.inc(granted_vol, op=op, decision="granted")
                audit.record(
                    now, op, _audit.GRANTED, granted_vol,
                    component_votes=int(vote_totals[mask].max()),
                    component_size=int(mask.sum()),
                    read_quorum=q_r, write_quorum=q_w,
                    assignment_version=newest,
                )
            denied = ~mask
            down = denied & ~site_up
            down_vol = float(volumes[down].sum())
            if down_vol > 0:
                self.accesses.inc(down_vol, op=op, decision="denied")
                audit.record(now, op, _audit.SITE_DOWN, down_vol,
                             component_size=int(down.sum()))
            up_denied = denied & site_up
            if comp_version is not None:
                stale = up_denied & (comp_version < newest)
                stale_vol = float(volumes[stale].sum())
                if stale_vol > 0:
                    self.accesses.inc(stale_vol, op=op, decision="denied")
                    audit.record(
                        now, op, _audit.STALE_ASSIGNMENT, stale_vol,
                        component_votes=int(vote_totals[stale].max()),
                        component_size=int(stale.sum()),
                        read_quorum=q_r, write_quorum=q_w,
                        assignment_version=int(comp_version[stale].max()),
                    )
                no_quorum = up_denied & ~stale
            else:
                no_quorum = up_denied
            noq_vol = float(volumes[no_quorum].sum())
            if noq_vol > 0:
                self.accesses.inc(noq_vol, op=op, decision="denied")
                audit.record(
                    now, op, _audit.NO_QUORUM, noq_vol,
                    component_votes=int(vote_totals[no_quorum].max()),
                    component_size=int(no_quorum.sum()),
                    read_quorum=q_r, write_quorum=q_w,
                    assignment_version=newest,
                )

    @staticmethod
    def _component_versions(tracker, protocol):
        """Per-site version of the site's component (versioned protocols).

        A component's version is the newest any member holds (the QR
        propagation rule converges members to it); isolated/down sites
        keep their own. Returns (None, None) for unversioned protocols.
        """
        versions = getattr(protocol, "site_version", None)
        if versions is None:
            return None, None
        versions = np.asarray(versions)
        newest = int(versions.max())
        labels = tracker.labels
        live = labels >= 0
        comp_version = versions.copy()
        if live.any():
            n_components = int(labels[live].max()) + 1
            comp_max = np.zeros(n_components, dtype=versions.dtype)
            np.maximum.at(comp_max, labels[live], versions[live])
            comp_version[live] = comp_max[labels[live]]
        return comp_version, newest


#: Measured epochs the ledger buffers between flushes. It bounds the
#: buffers (~0.65 MiB at 101 sites); a ``paper``-scale fully connected
#: batch has ~800 k epochs, so a whole batch cannot be buffered.
_LEDGER_CHUNK = 256


class _EpochLedger:
    """Per-batch accounting, buffered by epoch and settled a chunk at a time.

    :meth:`record` (``sampled``) copies one measured epoch, volumes
    included, into preallocated ``(chunk, n_sites)`` rows;
    :meth:`record_expected` buffers the same epoch without volumes and
    :meth:`flush` derives the chunk's from its durations. A ledger is
    fed through one of the two for its whole life. An epoch's
    ``(vote_totals, read_mask, write_mask)`` is copied only when one of
    the three is not *the same object* the epoch before handed in (most
    events on a dense graph change nothing); otherwise the epoch is a row
    index, expanded first thing at the flush. Identity is sound: the
    ledger holds the objects, so no id is recycled, and no tracker or
    protocol mutates an array it handed out. The flush performs
    the same float additions in the same (epoch) order a per-epoch loop
    would — the running sums through a carry-seeded
    ``np.add.accumulate``, the histograms through unbuffered
    ``np.add.at`` over epoch-major cells — so results do not depend on
    where the chunks end, in either mode. Against a per-epoch loop that
    sums a granted volume over the granted sites alone, ``expected``
    mode moves those two sums in the last bits: a masked row sum pairs
    its terms differently.
    """

    __slots__ = (
        "sums", "n_epochs", "n_events", "density_time", "density_access",
        "max_votes_time", "_fill", "_durations", "_totals", "_reads",
        "_writes", "_read_masks", "_write_masks", "_workload",
        "_row_of", "_n_rows", "_seen",
    )

    def __init__(self, n_sites: int, total_votes: int) -> None:
        #: reads/writes submitted, reads/writes granted, read/write SURV time.
        self.sums = np.zeros(6, dtype=np.float64)
        self.n_epochs = 0
        self.n_events = 0
        self.density_time = OnlineDensityEstimator(n_sites, total_votes)
        self.density_access = OnlineDensityEstimator(n_sites, total_votes)
        self.max_votes_time = np.zeros(total_votes + 1, dtype=np.float64)
        rows = (_LEDGER_CHUNK, n_sites)
        self._fill = 0
        self._durations = np.empty(_LEDGER_CHUNK, dtype=np.float64)
        self._totals = np.empty(rows, dtype=np.int64)
        # Sampled volumes only (never touched in expected mode).
        self._reads = np.empty(rows, dtype=np.float64)
        self._writes = np.empty(rows, dtype=np.float64)
        self._read_masks = np.empty(rows, dtype=np.bool_)
        self._write_masks = np.empty(rows, dtype=np.bool_)
        #: Workload the buffered epochs ran under (expected mode), else None.
        self._workload = None
        #: Each buffered epoch's row, rows in use, the newest row's sources.
        self._row_of = np.empty(_LEDGER_CHUNK, dtype=np.intp)
        self._n_rows = 0
        self._seen = (None, None, None)

    def record(self, duration, vote_totals, reads, writes,
               read_mask, write_mask) -> None:
        """Buffer one measured epoch with its per-site access volumes."""
        i = self._fill
        self._reads[i] = reads
        self._writes[i] = writes
        self._buffer(duration, vote_totals, read_mask, write_mask)

    def record_expected(self, duration, vote_totals, workload,
                        read_mask, write_mask) -> None:
        """Buffer one measured epoch whose volumes are ``workload``'s expected.

        A chunk is settled under one workload, so a change of
        ``PhasedWorkload`` phase flushes what is buffered first.
        """
        if workload is not self._workload:
            self.flush()
            self._workload = workload
        self._buffer(duration, vote_totals, read_mask, write_mask)

    def _buffer(self, duration, vote_totals, read_mask, write_mask) -> None:
        i = self._fill
        self._durations[i] = duration
        row = self._n_rows
        seen = self._seen
        if (vote_totals is not seen[0] or read_mask is not seen[1]
                or write_mask is not seen[2]):
            self._totals[row] = vote_totals
            self._read_masks[row] = read_mask
            self._write_masks[row] = write_mask
            self._seen = (vote_totals, read_mask, write_mask)
            self._n_rows = row = row + 1
        self._row_of[i] = row - 1
        self._fill = i + 1
        if self._fill == len(self._durations):
            self.flush()

    def flush(self) -> None:
        """Account the buffered epochs, in order, and empty the buffer."""
        k = self._fill
        if k == 0:
            return
        self._fill = self._n_rows = 0
        self._seen = (None, None, None)
        durations = self._durations[:k]
        row_of = self._row_of[:k]
        if self._workload is None:
            reads, writes = self._reads[:k], self._writes[:k]
        else:
            reads, writes = self._workload.expected_epochs(durations)
        self.settle(durations, self._totals[row_of], reads, writes,
                    self._read_masks[row_of], self._write_masks[row_of])

    def settle(self, durations, totals, reads, writes, read_masks,
               write_masks) -> None:
        """Account ``k`` consecutive measured epochs, given as ``(k,)``
        durations and ``(k, n_sites)`` rows, after every earlier one."""
        k = durations.shape[0]
        self.density_time.observe_epochs(totals, durations)
        self.density_access.observe_epochs(totals, reads + writes)
        np.add.at(self.max_votes_time, totals.max(axis=1), durations)

        terms = np.empty((k + 1, 6), dtype=np.float64)
        terms[0] = self.sums
        terms[1:, 0] = reads.sum(axis=1)
        terms[1:, 1] = writes.sum(axis=1)
        terms[1:, 2] = np.where(read_masks, reads, 0.0).sum(axis=1)
        terms[1:, 3] = np.where(write_masks, writes, 0.0).sum(axis=1)
        terms[1:, 4] = np.where(read_masks.any(axis=1), durations, 0.0)
        terms[1:, 5] = np.where(write_masks.any(axis=1), durations, 0.0)
        self.sums = np.add.accumulate(terms, axis=0)[-1]
        self.n_epochs += k


def _failure_snapshot(state: NetworkState) -> dict:
    """Component up-masks at the moment a batch died (for quarantine)."""
    return {
        "site_up": state.site_up.astype(int).tolist(),
        "link_up": state.link_up.astype(int).tolist(),
    }


def simulate_batch(
    config: SimulationConfig,
    protocol: ReplicaControlProtocol,
    batch_index: int = 0,
    change_observer: Optional[ChangeObserver] = None,
) -> BatchResult:
    """Convenience wrapper: one batch with a fresh engine."""
    return SimulationEngine(config, protocol, change_observer).run_batch(batch_index)

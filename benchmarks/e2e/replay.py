"""Drive one simulator layer at a time over a recorded ``NetworkTrace``.

The simulator core carries no phase attribution of its own, so the
traced run keeps the failure history of every batch it simulated and
this module replays it through each layer alone: the event generator,
the incremental ``ComponentTracker``, the full relabel it falls back to,
the protocol's grant masks, the access sampler and the density
estimator. What is left of the engine's busy time after subtracting
these is the event loop's own remainder. Times are CPU seconds, like the
spans they are subtracted from.

Like the engine, the replay touches the tracker only in measured epochs:
a static protocol ignores ``on_network_change``, so during warm-up
nothing asks for labels and the first measured epoch pays one full
relabel.
"""

from __future__ import annotations

from time import process_time
from typing import Dict

from repro.connectivity.components import component_labels
from repro.protocols.estimator import OnlineDensityEstimator
from repro.rng import spawn, stream_for
from repro.simulation.events import EventQueue
from repro.simulation.processes import FailureProcesses
from repro.simulation.trace import TraceReplayer

__all__ = ["replay_batch", "RELABEL_SAMPLES"]

#: States per batch handed to the full relabel; it is strided over the
#: trace because its per-state cost, not its total, is the number wanted.
RELABEL_SAMPLES = 300


def _batch_streams(config, batch_index):
    """The engine's own (failure, access) streams for this batch."""
    failure_rng, access_rng, _ = spawn(stream_for(config.seed, batch_index), 3)
    return failure_rng, access_rng


def _replay_events(config, batch_index) -> Dict[str, float]:
    """``FailureProcesses`` + ``EventQueue`` primed and drained alone."""
    failure_rng, _ = _batch_streams(config, batch_index)
    horizon = config.warmup_time + config.batch_time
    start = process_time()
    queue = EventQueue()
    processes = FailureProcesses(
        config.topology,
        config.mean_time_to_failure,
        config.mean_time_to_repair,
        seed=failure_rng,
        fallible_sites=config.fallible_sites,
        fallible_links=config.fallible_links,
    )
    if config.initial_state == "stationary":
        processes.prime_stationary(queue)
    else:
        processes.prime(queue)
    count = 0
    while queue and queue.peek_time() < horizon:
        event = queue.pop()
        if event.kind.is_failure:
            processes.schedule_repair(queue, event.time, event.kind, event.target)
        else:
            processes.schedule_failure(queue, event.time, event.kind, event.target)
        count += 1
    return {"events_s": process_time() - start, "events": count}


def _replay_accounting(config, protocol, batch_index, trace) -> Dict[str, float]:
    """Tracker, grant masks, access sampler and estimator, epoch by epoch."""
    topology = config.topology
    _, access_rng = _batch_streams(config, batch_index)
    warmup_end = config.warmup_time
    horizon = warmup_end + config.batch_time
    workload = config.workload
    density_time = OnlineDensityEstimator(topology.n_sites, topology.total_votes)
    density_access = OnlineDensityEstimator(topology.n_sites, topology.total_votes)
    protocol.reset()

    grant_s = workload_s = estimator_s = 0.0
    epochs = 0
    tracker = None
    loop_start = process_time()
    for start, end, tracker in TraceReplayer(topology, trace).epochs(horizon):
        if end <= warmup_end:
            continue
        duration = end - max(start, warmup_end)
        totals = tracker.vote_totals
        t0 = process_time()
        protocol.grant_masks(tracker)
        t1 = process_time()
        reads, writes = workload.sample_epoch(duration, access_rng)
        t2 = process_time()
        density_time.observe_all(totals, weight=duration)
        density_access.observe_counts(totals, reads + writes)
        t3 = process_time()
        grant_s += t1 - t0
        workload_s += t2 - t1
        estimator_s += t3 - t2
        epochs += 1
    loop_s = process_time() - loop_start
    return {
        # The replayer's state flips and the tracker refresh are both
        # connectivity/dynamic.py, so the loop's remainder is theirs.
        "tracker_s": loop_s - grant_s - workload_s - estimator_s,
        "grant_s": grant_s,
        "workload_s": workload_s,
        "estimator_s": estimator_s,
        "epochs": epochs,
        "incremental": tracker.n_incremental if tracker is not None else 0,
        "full": tracker.n_full if tracker is not None else 0,
    }


def _replay_relabel(config, trace) -> Dict[str, float]:
    """``component_labels`` on a strided sample of the replayed states."""
    topology = config.topology
    warmup_end = config.warmup_time
    stride = max(1, len(trace) // RELABEL_SAMPLES)
    busy = 0.0
    states = 0
    replayer = TraceReplayer(topology, trace)
    for index, (_, end, tracker) in enumerate(
        replayer.epochs(warmup_end + config.batch_time)
    ):
        if end <= warmup_end or index % stride:
            continue
        state = tracker.state
        t0 = process_time()
        component_labels(topology, state.site_up, state.link_up)
        busy += process_time() - t0
        states += 1
    return {"relabel_s": busy, "relabel_states": states}


def replay_batch(config, protocol, batch_index, trace) -> Dict[str, float]:
    """All layer replays of one recorded batch, as one flat dict."""
    out: Dict[str, float] = {"trace_events": len(trace)}
    out.update(_replay_events(config, batch_index))
    out.update(_replay_accounting(config, protocol, batch_index, trace))
    out.update(_replay_relabel(config, trace))
    return out

#!/usr/bin/env python
"""Smoke-check the engine hot path's telemetry overhead, off and on.

The engine's epoch loop is instrumented, but when no recorder is
installed every instrumentation site reduces to one ``instruments is
None`` test. This script measures that residual cost directly: it times
the shipped ``_measure_loop`` (null recorder) against a copy of the same
loop without the instrumentation sites, on identical seeds, and fails if
the instrumented-but-disabled path is more than ``--threshold`` slower.
It first asserts that both loops return identical ``BatchResult``
counters and ``density_time`` weights, once per accounting mode: the
two modes take different branches of the loop and different ledger
entry points.

A second measurement gates the *enabled* cost of the tracing layer
where it actually instruments: the production enumeration kernel (the
collapse-DFS that a bare ``enumerate_density_matrix`` call runs), whose
stack loop is split into two named phases, ``enum.branch`` and
``enum.flush``. The kernel is timed with the null recorder and again
under a live one; the live path adds phase accounting (two clock reads
per section) and must stay under ``--tracing-threshold`` (default 1.10).
The script then asserts that the live recorder really accumulated time
under both phase names (exit 2 otherwise), so the gate cannot go on
passing against a kernel that no longer carries them. The engine epoch
loop is deliberately *not* the tracing-on gate: a live recorder there
pays for per-epoch metrics and audit records, a cost that predates and
is orthogonal to the tracing subsystem. A sanity check asserts both
kernel runs return bitwise identical densities — tracing observes
outcomes, it must never change them.

Run from the repo root:

    PYTHONPATH=src python scripts/check_telemetry_overhead.py

Methodology: the two variants are timed interleaved (A B A B ...) so a
frequency ramp or a noisy neighbour hits both equally, and we compare
minima over ``--repeats`` rounds — the minimum is the standard low-noise
estimator for CPU-bound loops (cf. timeit).
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import numpy as np

from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.topology.generators import ring


class BaselineEngine(SimulationEngine):
    """Engine whose epoch loop has no instrumentation sites.

    This is ``SimulationEngine._measure_loop`` with every ``instruments``
    branch deleted and nothing else changed — the floor the <5%
    criterion is measured against. The sanity check in ``main`` asserts
    both loops return identical batch results, so this copy cannot
    drift from the shipped loop unnoticed.
    """

    def _measure_loop(
        self, walk, state, tracker, sampled, workload, access_rng, ledger,
    ) -> None:
        phase_at = getattr(workload, "at", None)
        epoch_hook = getattr(self.protocol, "record_epoch", None)
        warmup_end = walk.warmup_end
        for now, epoch_end, events in walk.epochs():
            if events is not None:
                ledger.n_events += len(events)
                self.protocol.on_network_change(tracker)
                if self.change_observer is not None:
                    self.change_observer(now, tracker, self.protocol)

            duration = epoch_end - now
            if duration > 0 and now >= warmup_end:
                vote_totals = tracker.vote_totals
                read_mask, write_mask = self.protocol.grant_masks(tracker)
                active = workload if phase_at is None else phase_at(now - warmup_end)
                if sampled:
                    reads, writes = active.sample_epoch(duration, access_rng)
                    ledger.record(duration, vote_totals, reads, writes,
                                  read_mask, write_mask)
                else:
                    ledger.record_expected(duration, vote_totals, active,
                                           read_mask, write_mask)
                    if epoch_hook is not None:
                        reads, writes = active.expected_epoch(duration)
                if epoch_hook is not None:
                    epoch_hook(tracker, duration, reads=reads, writes=writes)


#: ``BatchResult`` scalars the baseline must reproduce exactly.
RESULT_FIELDS = (
    "reads_submitted", "reads_granted", "writes_submitted", "writes_granted",
    "surv_read", "surv_write", "n_epochs", "n_events",
)


def divergence(shipped, baseline):
    """Name of the first result field the two loops disagree on, or None."""
    for name in RESULT_FIELDS:
        if getattr(shipped, name) != getattr(baseline, name):
            return f"{name}: {getattr(shipped, name)} != {getattr(baseline, name)}"
    if not np.array_equal(shipped.density_time._weights,
                          baseline.density_time._weights):
        return "density_time weights"
    return None


def build_config(n_sites: int, accesses: float, seed: int) -> SimulationConfig:
    return SimulationConfig.paper_like(
        ring(n_sites),
        alpha=0.5,
        warmup_accesses=0.0,
        accesses_per_batch=accesses,
        n_batches=1,
        seed=seed,
    )


def time_batches(engine: SimulationEngine, n_batches: int) -> float:
    start = perf_counter()
    for i in range(n_batches):
        engine.run_batch(i)
    return perf_counter() - start


#: The phases the tracing gate claims to measure.
ENUM_PHASES = ("enum.branch", "enum.flush")


def time_enumeration(sites: int, telemetry=None):
    """Time one cache-bypassed enumeration sweep; return (seconds, matrix)."""
    from repro.analytic import cache as density_cache
    from repro.analytic.enumeration import enumerate_density_matrix
    from repro.telemetry.recorder import use
    from repro.topology.generators import ring

    topology = ring(sites)
    with density_cache.disabled():
        if telemetry is None:
            start = perf_counter()
            matrix = enumerate_density_matrix(topology, 0.96, 0.96)
            return perf_counter() - start, matrix
        with use(telemetry):
            start = perf_counter()
            matrix = enumerate_density_matrix(topology, 0.96, 0.96)
            return perf_counter() - start, matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=1.05,
                        help="max allowed instrumented/baseline ratio "
                        "with the recorder disabled")
    parser.add_argument("--tracing-threshold", type=float, default=1.10,
                        help="max allowed live/null ratio on the "
                        "collapse-DFS enumeration kernel "
                        "(phases enum.branch / enum.flush)")
    parser.add_argument("--enum-sites", type=int, default=13,
                        help="ring size for the kernel tracing gate "
                        "(2^(2n) states; 13 is ~0.15 s per run, long "
                        "enough for a 10%% budget to clear timer noise)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="interleaved timing rounds (min is compared)")
    parser.add_argument("--sites", type=int, default=15)
    parser.add_argument("--accesses", type=float, default=40_000.0,
                        help="access volume per batch (sets batch length)")
    parser.add_argument("--batches", type=int, default=4,
                        help="batches per timing round")
    args = parser.parse_args(argv)

    from repro.telemetry.recorder import Telemetry

    cfg = build_config(args.sites, args.accesses, seed=17)
    protocol = MajorityConsensusProtocol(cfg.topology.total_votes)
    instrumented = SimulationEngine(cfg, protocol)
    baseline = BaselineEngine(cfg, protocol)

    assert not instrumented.telemetry.enabled, (
        "a telemetry recorder is installed; this check times the "
        "disabled path only"
    )

    # Sanity: the baseline copy must be the shipped loop, bit for bit,
    # down both of its accounting branches.
    for mode in ("sampled", "expected"):
        mode_cfg = cfg.with_accounting(mode)
        diverged = divergence(SimulationEngine(mode_cfg, protocol).run_batch(0),
                              BaselineEngine(mode_cfg, protocol).run_batch(0))
        if diverged is not None:
            print(f"FAIL: baseline loop diverged in {mode} mode on {diverged}")
            return 2

    # Warm-up round so allocator/caches settle before timing.
    time_batches(instrumented, 1)
    time_batches(baseline, 1)

    inst_times, base_times = [], []
    for _ in range(args.repeats):
        inst_times.append(time_batches(instrumented, args.batches))
        base_times.append(time_batches(baseline, args.batches))

    inst_best = min(inst_times)
    base_best = min(base_times)
    ratio = inst_best / base_best
    print(f"baseline (uninstrumented loop): {base_best:.4f}s "
          f"for {args.batches} batches")
    print(f"instrumented, recorder disabled: {inst_best:.4f}s "
          f"({(ratio - 1.0) * 100.0:+.2f}%, threshold "
          f"{(args.threshold - 1.0) * 100.0:.0f}%)")

    # Tracing-enabled gate: the collapse-DFS enumeration kernel, null
    # recorder vs live, interleaved, minima compared.
    live = Telemetry()
    time_enumeration(args.enum_sites)  # warm-up
    time_enumeration(args.enum_sites, live)
    null_times, live_times = [], []
    null_matrix = live_matrix = None
    for _ in range(args.repeats):
        seconds, null_matrix = time_enumeration(args.enum_sites)
        null_times.append(seconds)
        seconds, live_matrix = time_enumeration(args.enum_sites, live)
        live_times.append(seconds)
    if not np.array_equal(null_matrix, live_matrix):
        print("FAIL: tracing changed the enumeration kernel's output")
        return 2
    recorded = {entry["name"]: entry["wall"]
                for entry in live.phases.snapshot()}
    unseen = [name for name in ENUM_PHASES if recorded.get(name, 0.0) <= 0.0]
    if unseen:
        print(f"FAIL: the live recorder saw no time under {unseen}; "
              f"phases recorded: {sorted(recorded)}")
        return 2
    traced_ratio = min(live_times) / min(null_times)
    print(f"enumeration kernel, recorder off: {min(null_times):.4f}s")
    print(f"enumeration kernel, recorder on:  {min(live_times):.4f}s "
          f"({(traced_ratio - 1.0) * 100.0:+.2f}%, threshold "
          f"{(args.tracing_threshold - 1.0) * 100.0:.0f}%)")

    failed = False
    if ratio >= args.threshold:
        print("FAIL: disabled-telemetry overhead exceeds the budget")
        failed = True
    if traced_ratio >= args.tracing_threshold:
        print("FAIL: live-tracing overhead exceeds the budget")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

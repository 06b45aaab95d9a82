#!/usr/bin/env python
"""Smoke-check the live tracing recorder's overhead on the enumeration kernel.

The tracing layer instruments the production enumeration kernel (the
collapse-DFS that a bare ``enumerate_density_matrix`` call runs), whose
stack loop is split into two named phases, ``enum.branch`` and
``enum.flush``. The kernel is timed with the null recorder and again
under a live one; the live path adds phase accounting (two clock reads
per section) and must stay under ``--tracing-threshold`` (default 1.10).
The script then asserts that the live recorder really accumulated time
under both phase names (exit 2 otherwise), so the gate cannot go on
passing against a kernel that no longer carries them. A sanity check
asserts both kernel runs return bitwise identical densities — tracing
observes outcomes, it must never change them.

The *disabled* recorder is not timed here: with the null recorder no
function of ``repro/telemetry/`` or ``repro/tracing/`` runs per event in
the engine's epoch loop, which ``tests/simulation/test_event_cost.py``
counts exactly instead.

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
    args = parser.parse_args(argv)

    from repro.telemetry.recorder import Telemetry

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

    if traced_ratio >= args.tracing_threshold:
        print("FAIL: live-tracing overhead exceeds the budget")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

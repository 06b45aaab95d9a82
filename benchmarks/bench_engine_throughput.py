"""PERF-ENGINE: simulator throughput on the paper's topologies.

Not a paper experiment — an engineering benchmark tracking the cost
drivers identified in DESIGN.md: the component recomputation per
failure/repair event (scales with links) and the per-epoch accounting.
Real multi-round timings, unlike the single-shot experiment benches.

Reported unit: simulated failure/repair events processed per second.
A batch's failure history is generated ahead of the accounting
(`FailureProcesses.history`), so a round is that generator, the tracker
and the epoch ledger; no per-event `EventQueue` round trip. Timed, not
extrapolated: a 100 000-access fully-connected batch (76 759 events,
`_run(4949, 100_000.0)`) takes ≈ 1.3 CPU s here and the paper's full
1M-access batch (`_run(4949, 1_000_000.0)`, 764 116 events) ≈ 12.5 CPU s
at 92 MiB resident, versus hours on the original DEC Station 5000.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.topology.generators import paper_topology


def _run(chords: int, accesses: float):
    topo = paper_topology(chords)
    cfg = SimulationConfig.paper_like(
        topo,
        alpha=0.5,
        warmup_accesses=0.0,
        accesses_per_batch=accesses,
        n_batches=1,
        initial_state="stationary",
        seed=1,
    )
    engine = SimulationEngine(cfg, MajorityConsensusProtocol(topo.total_votes))
    return engine.run_batch(0)


@pytest.mark.parametrize(
    "chords,accesses", [(2, 3_000.0), (256, 3_000.0), (4949, 3_000.0)]
)
def test_engine_throughput(benchmark, report, chords, accesses):
    batch = benchmark(lambda: _run(chords, accesses))
    events_per_sec = batch.n_events / benchmark.stats["mean"]
    report(
        f"=== PERF-ENGINE: topology {chords} ===\n"
        f"{batch.n_events} events, {batch.n_epochs} epochs in "
        f"{benchmark.stats['mean']*1e3:.1f} ms -> {events_per_sec:,.0f} events/s"
    )
    # Regression guard (very loose: CI machines vary widely).
    assert events_per_sec > 500

"""SERVE: the adaptive quorum serving layer under chaos (DESIGN.md §11).

One timed measurement: the CI smoke configuration of ``repro serve`` —
the 13-site paper-family ring, 20 000 accesses, scripted correlated
failures — run end to end through the deterministic sequencer. Besides
the wall-clock timing, every round re-asserts the run's hard guarantees:
zero invariant violations, exact audit/ACC reconciliation, at least one
reassignment installed by the online estimation loop, and a digest
identical across rounds (the determinism contract).

The summary entry in ``BENCH_serving.json`` records request throughput
(served per wall second) and the p99 grant latency in simulated seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import _BENCH_JSON, timed
from repro.quorum.assignment import QuorumAssignment
from repro.serving import ServeConfig, run_serve, serving_schedule
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring_with_chords

N_SITES = 13
CHORDS = 2
N_REQUESTS = 20_000
SEED = 7
SCENARIO = "correlated"

_STATE = {}


def _serve_once():
    topology = ring_with_chords(N_SITES, CHORDS)
    config = ServeConfig(
        topology=topology,
        workload=AccessWorkload.uniform(N_SITES, 0.7),
        initial_assignment=QuorumAssignment.from_read_quorum(
            topology.total_votes, 1
        ),
        n_requests=N_REQUESTS,
        seed=SEED,
        scenario=SCENARIO,
    )
    config.fault_schedule = serving_schedule(SCENARIO, topology, config.horizon)
    return run_serve(config)


def test_serve_smoke_under_chaos(benchmark, report):
    result = timed(benchmark, _serve_once)
    assert result.exit_code == 0, result.summary()
    assert not result.violations
    assert result.reconciled
    assert len(result.reassignments) >= 1
    digest = result.digest()
    previous = _STATE.setdefault("digest", digest)
    assert digest == previous, "serving digest drifted between rounds"
    _STATE["report"] = result
    report(
        "=== SERVE: correlated-failure smoke ===\n"
        f"  {result.served} served over {result.n_sites} sites, "
        f"{len(result.reassignments)} reassignment(s), final q_r="
        f"{result.final_read_quorum}\n"
        f"  throughput {result.throughput:,.0f} req/s, availability "
        f"{result.availability:.4f}, mean {benchmark.stats.stats.mean * 1e3:.0f}ms"
    )


def test_serving_summary(report):
    result = _STATE["report"]
    _BENCH_JSON.setdefault("serving", []).append({
        "test": "serving_summary",
        "requests": result.served,
        "throughput_rps": round(result.throughput, 1),
        "p99_latency_sim_s": result.latency["p99"],
        "availability": round(result.availability, 6),
        "attempt_acc": round(result.attempt_availability, 6),
        "reassignments": len(result.reassignments),
        "final_read_quorum": result.final_read_quorum,
        "digest": result.digest()[:16],
    })
    report(
        "=== SERVE: summary ===\n"
        f"  throughput    : {result.throughput:,.0f} req/s\n"
        f"  p99 latency   : {result.latency['p99']:.3g} sim-s\n"
        f"  availability  : {result.availability:.4f}\n"
        f"  reassignments : {len(result.reassignments)}"
    )

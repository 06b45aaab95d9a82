"""The tracker under the simulator's real traffic, audited on every refresh.

The property tests drive one flip per read. The engine does not: a
stationary start flips dozens of components before the first read, the
warm-up reads nothing at all, and same-instant events land between two
reads. Here every tracker the engine builds cross-checks itself against
the full relabel (and its bitmasks against the state) on every
incremental refresh, and the batch must come out exactly as unaudited.
The protocol is ``TrackedQuorumConsensus``, so that every topology here
runs on the tracker and not on the chunked labelling.
"""

import pytest

from repro.connectivity.dynamic import ComponentTracker
from repro.simulation import engine as engine_module
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.topology.generators import fully_connected, paper_topology
from tests.oracles import TrackedQuorumConsensus

TOPOLOGIES = {
    "paper-2": lambda: paper_topology(2, n_sites=31),
    "paper-256": lambda: paper_topology(256, n_sites=31),
    "complete-20": lambda: fully_connected(20),
}


def _fingerprint(result):
    return (
        result.reads_submitted, result.reads_granted,
        result.writes_submitted, result.writes_granted,
        result.surv_read, result.surv_write, result.measured_time,
        result.n_epochs, result.n_events,
        result.density_time._weights.tobytes(),
        result.density_access._weights.tobytes(),
        result.max_votes_time.tobytes(),
    )


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_audited_batch_equals_the_unaudited_one(name, monkeypatch):
    topology = TOPOLOGIES[name]()
    config = SimulationConfig.paper_like(
        topology, alpha=0.5, rho=1.0 / 8.0, warmup_accesses=500.0,
        accesses_per_batch=1_500.0, n_batches=1, seed=7,
        initial_state="stationary",
    )
    protocol = TrackedQuorumConsensus(topology.n_sites)
    plain = SimulationEngine(config, protocol).run_batch(0)
    assert plain.n_events > 100

    built = []

    def audited(state, **kwargs):
        built.append(ComponentTracker(state, audit_interval=1, **kwargs))
        return built[-1]

    monkeypatch.setattr(engine_module, "ComponentTracker", audited)
    checked = SimulationEngine(config, protocol).run_batch(0)

    (tracker,) = built
    assert tracker.n_incremental > 100 and tracker.n_full >= 1
    assert _fingerprint(checked) == _fingerprint(plain)

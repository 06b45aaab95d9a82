"""Tests for trace recording and replay."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.protocols.dynamic_voting import DynamicVotingProtocol
from repro.protocols.majority import MajorityConsensusProtocol
from repro.protocols.primary_copy import PrimaryCopyProtocol
from repro.protocols.quorum_consensus import QuorumConsensusProtocol
from repro.protocols.read_one_write_all import ReadOneWriteAllProtocol
from repro.quorum.assignment import QuorumAssignment
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event, EventKind
from repro.simulation.runner import run_simulation
from repro.simulation.trace import (
    TRACE_SCHEMA_VERSION,
    NetworkTrace,
    TraceReplayer,
)
from repro.topology.generators import ring


def recorded_batch(n=9, seed=8, accesses=5_000.0):
    cfg = SimulationConfig.paper_like(
        ring(n),
        alpha=0.5,
        warmup_accesses=0.0,
        accesses_per_batch=accesses,
        n_batches=1,
        seed=seed,
    )
    engine = SimulationEngine(cfg, MajorityConsensusProtocol(n), record_trace=True)
    return cfg, engine.run_batch(0)


class TestRecording:
    def test_engine_records_trace(self):
        cfg, batch = recorded_batch()
        assert batch.trace is not None
        assert len(batch.trace) == batch.n_events
        counts = batch.trace.counts_by_kind()
        assert counts.get("site_fail", 0) > 0 or counts.get("link_fail", 0) > 0

    def test_no_trace_by_default(self):
        cfg = SimulationConfig.paper_like(
            ring(5), alpha=0.5, warmup_accesses=0.0,
            accesses_per_batch=500.0, n_batches=1, seed=1,
        )
        batch = SimulationEngine(cfg, MajorityConsensusProtocol(5)).run_batch(0)
        assert batch.trace is None

    def test_record_rejects_out_of_order(self):
        trace = NetworkTrace.empty(ring(4))
        trace.record(Event(5.0, 0, EventKind.SITE_FAIL, 1))
        with pytest.raises(SimulationError):
            trace.record(Event(4.0, 1, EventKind.SITE_REPAIR, 1))

    def test_record_rejects_access_events(self):
        trace = NetworkTrace.empty(ring(4))
        with pytest.raises(SimulationError):
            trace.record(Event(1.0, 0, EventKind.ACCESS, 0))

    def test_dict_round_trip(self):
        cfg, batch = recorded_batch(accesses=1_000.0)
        again = NetworkTrace.from_dict(batch.trace.to_dict())
        assert again.events == batch.trace.events
        np.testing.assert_array_equal(again.initial_site_up, batch.trace.initial_site_up)

    def test_to_dict_declares_schema_version(self):
        trace = NetworkTrace.empty(ring(5))
        assert trace.to_dict()["schema"] == TRACE_SCHEMA_VERSION

    def test_empty_events_round_trip_preserves_sources(self):
        trace = NetworkTrace.empty(ring(5))
        again = NetworkTrace.from_dict(trace.to_dict())
        assert again.events == [] and again.sources == []
        # The round-tripped trace must stay recordable with correct
        # provenance alignment.
        again.record(Event(1.0, 0, EventKind.SITE_FAIL, 0, source="chaos"))
        assert again.counts_by_source() == {"chaos": 1}

    def test_v1_payload_without_sources_accepted_and_aligned(self):
        trace = NetworkTrace.empty(ring(5))
        trace.record(Event(1.0, 0, EventKind.SITE_FAIL, 0))
        payload = trace.to_dict()
        del payload["sources"]
        del payload["schema"]  # v1 payloads predate both keys
        again = NetworkTrace.from_dict(payload)
        assert again.sources == ["stochastic"]
        # A later record lands at the right position, not padded wrongly.
        again.record(Event(2.0, 1, EventKind.SITE_FAIL, 1, source="chaos"))
        assert again.sources == ["stochastic", "chaos"]
        assert [e[0] for e in again.chaos_events()] == [2.0]

    def test_unknown_schema_rejected(self):
        payload = NetworkTrace.empty(ring(5)).to_dict()
        payload["schema"] = 99
        with pytest.raises(SimulationError, match="schema version 99"):
            NetworkTrace.from_dict(payload)

    def test_excess_sources_rejected(self):
        payload = NetworkTrace.empty(ring(5)).to_dict()
        payload["sources"] = ["chaos"]
        with pytest.raises(SimulationError, match="sources"):
            NetworkTrace.from_dict(payload)

    def test_from_dict_missing_key(self):
        with pytest.raises(SimulationError):
            NetworkTrace.from_dict({"n_sites": 3})


class TestReplay:
    def test_epochs_partition_the_horizon(self):
        cfg, batch = recorded_batch(accesses=2_000.0)
        replayer = TraceReplayer(cfg.topology, batch.trace)
        horizon = batch.trace.duration()
        last_end = 0.0
        total = 0.0
        for start, end, tracker in replayer.epochs(horizon):
            assert start == pytest.approx(last_end)
            assert end >= start
            total += end - start
            last_end = end
        assert total == pytest.approx(horizon)

    def test_replay_availability_matches_engine(self):
        """Replaying the recorded history must reproduce the engine's
        time-weighted availability for the same protocol."""
        n = 9
        cfg = SimulationConfig.paper_like(
            ring(n), alpha=0.5, warmup_accesses=0.0,
            accesses_per_batch=20_000.0, n_batches=1,
            accounting="expected", seed=12,
        )
        engine = SimulationEngine(cfg, MajorityConsensusProtocol(n), record_trace=True)
        batch = engine.run_batch(0)
        replayer = TraceReplayer(cfg.topology, batch.trace)
        # Replay horizon = measurement window.
        replayed = _availability_over(replayer, MajorityConsensusProtocol(n), 0.5,
                                      horizon=batch.measured_time)
        assert replayed == pytest.approx(batch.availability, abs=1e-9)

    def test_topology_mismatch_rejected(self):
        cfg, batch = recorded_batch()
        with pytest.raises(SimulationError):
            TraceReplayer(ring(11), batch.trace)


class TestPairedRuns:
    """One config run under several protocols shares its failure history:
    a batch's history depends on ``(seed, batch)`` alone."""

    @staticmethod
    def _runs(alpha):
        n = 9
        cfg = SimulationConfig.paper_like(
            ring(n), alpha=alpha, warmup_accesses=500.0,
            accesses_per_batch=5_000.0, n_batches=3, seed=8,
        ).with_accounting("expected")
        protocols = (
            MajorityConsensusProtocol(n),
            ReadOneWriteAllProtocol(n),
            PrimaryCopyProtocol(0),
            DynamicVotingProtocol(n),
            QuorumConsensusProtocol(QuorumAssignment.from_read_quorum(n, 2)),
        )
        return [run_simulation(cfg, protocol) for protocol in protocols]

    def test_every_protocol_sees_the_same_history(self):
        runs = self._runs(0.5)
        histories = {
            tuple((b.n_events, b.measured_time) for b in run.batches)
            for run in runs
        }
        assert len(histories) == 1
        assert all(b.n_events > 0 for b in runs[0].batches)

    def test_paired_protocol_comparison(self):
        """Two protocols over ONE failure history: ROWA must beat majority
        at alpha = 1 batch for batch (reads need 1 vote, not a majority)."""
        majority, rowa = self._runs(1.0)[:2]
        for m, r in zip(majority.batches, rowa.batches):
            assert r.availability >= m.availability
        assert rowa.availability.mean > majority.availability.mean


def _availability_over(replayer, protocol, alpha, horizon):
    protocol.reset()
    total = weighted = 0.0
    n = replayer.topology.n_sites
    for start, end, tracker in replayer.epochs(horizon):
        protocol.on_network_change(tracker)
        read_mask, write_mask = protocol.grant_masks(tracker)
        duration = end - start
        weighted += duration * (
            alpha * read_mask.sum() / n + (1 - alpha) * write_mask.sum() / n
        )
        total += duration
    return weighted / total

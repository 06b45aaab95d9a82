"""Trace-first batches against the per-event engine they replaced.

A batch's failure history is generated ahead of the accounting and walked
by ``HistoryWalk``; nothing a caller can observe may have moved. The
golden file beside this module was written by this module at the parent
commit (per-event ``EventQueue`` loop, always-on trace):

    PYTHONPATH=<parent>/src python tests/simulation/test_trace_first.py

It pins, per case, a digest over every ``BatchResult`` scalar, both
estimators' weights, ``max_votes_time`` and the *returned* trace (initial
masks, events, sources), plus a few readable fields so that a mismatch
says more than "digest differs". The quarantine tests need no golden:
the healthy run of the same batch is their oracle.

``sharded-ring-7`` alone was rewritten later, by the same command, when
``ItemWorkload.sample_epoch`` moved to per-site thinning plus an item
draw on the batch's third substream: same law, new stream. Its epoch and
event counts did not move, and no other entry changed a byte.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.errors import BatchExecutionError
from repro.faults.schedule import FaultSchedule, partition
from repro.protocols.majority import MajorityConsensusProtocol
from repro.sharding import ItemWorkload, ShardConfig, run_sharded
from repro.simulation import processes as processes_module
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import SOURCE_CHAOS, EventKind
from repro.topology.generators import fully_connected, paper_topology, ring

GOLDEN = Path(__file__).with_name("golden_trace_first.json")

TOPOLOGIES = {
    "paper-2": lambda: paper_topology(2, n_sites=31),
    "paper-256": lambda: paper_topology(256, n_sites=31),
    "complete-20": lambda: fully_connected(20),
}

#: Two crashes and a partition at one instant inside the warm-up, healed at
#: different measured times: same-instant chaos groups, chaos repairs, and
#: components the stochastic processes must leave alone.
def chaos_schedule(topology):
    return FaultSchedule(
        [(9.0, EventKind.SITE_FAIL, 1), (9.0, EventKind.SITE_FAIL, 2),
         (31.5, EventKind.SITE_REPAIR, 1), (31.5, EventKind.SITE_REPAIR, 2)]
        + partition(topology, 9.0, [[3, 4, 5]], heal_at=40.0)
    )

CASES = [
    (topology, initial_state, accounting, chaos)
    for topology in sorted(TOPOLOGIES)
    for initial_state in ("all_up", "stationary")
    for accounting in ("sampled", "expected")
    for chaos in (False, True)
]


def case_id(case):
    topology, initial_state, accounting, chaos = case
    return f"{topology}-{initial_state}-{accounting}-{'chaos' if chaos else 'plain'}"


def build_config(case, **overrides):
    name, initial_state, accounting, chaos = case
    topology = TOPOLOGIES[name]()
    fields = dict(
        alpha=0.5, rho=1.0 / 8.0, warmup_accesses=500.0,
        accesses_per_batch=1_500.0, n_batches=1, seed=7,
        initial_state=initial_state, accounting=accounting,
        fault_schedule=chaos_schedule(topology) if chaos else None,
    )
    fields.update(overrides)
    return SimulationConfig.paper_like(topology, **fields)


def run_case(case, **engine_kwargs):
    config = build_config(case)
    protocol = MajorityConsensusProtocol(config.topology.total_votes)
    return SimulationEngine(config, protocol, **engine_kwargs).run_batch(0)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def fingerprint(result):
    trace = result.trace
    return {
        "n_events": result.n_events,
        "n_epochs": result.n_epochs,
        "trace_events": len(trace.events),
        "trace_chaos": trace.counts_by_source().get(SOURCE_CHAOS, 0),
        "reads_granted": repr(result.reads_granted),
        "digest": _digest([
            (result.reads_submitted, result.reads_granted,
             result.writes_submitted, result.writes_granted,
             result.surv_read, result.surv_write, result.measured_time,
             result.n_epochs, result.n_events),
            result.density_time._weights.tobytes(),
            result.density_access._weights.tobytes(),
            result.max_votes_time.tobytes(),
            trace.initial_site_up.tobytes(), trace.initial_link_up.tobytes(),
            [(float(t), str(k), int(x)) for t, k, x in trace.events],
            list(trace.sources),
        ]),
    }


def shard_config():
    n_items = 3
    return ShardConfig(
        topology=ring(7),
        workload=ItemWorkload.zipf(n_items, 7, np.linspace(0.2, 0.9, n_items),
                                   exponent=1.0),
        mean_time_to_failure=30.0, mean_time_to_repair=5.0,
        warmup_accesses=100.0, accesses_per_batch=1_500.0,
        n_batches=2, seed=11, initial_state="stationary",
    )


def shard_fingerprint(result):
    return {
        "n_events": [b.n_events for b in result.batches],
        "n_epochs": [b.n_epochs for b in result.batches],
        "digest": _digest(
            part for b in result.batches for part in (
                (b.batch_index, b.measured_time, b.n_epochs, b.n_events),
                b.reads_submitted.tobytes(), b.reads_granted.tobytes(),
                b.writes_submitted.tobytes(), b.writes_granted.tobytes(),
                b.surv_read_time.tobytes(), b.surv_write_time.tobytes(),
                b.density_time.tobytes(), b.density_access.tobytes(),
            )),
    }


def small_blocks():
    """History and pool blocks far below any case's event count."""
    return mock.patch.multiple(processes_module, _HISTORY_BLOCK=5, _POOL_BLOCK=3)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestBatchesEqualTheParents:
    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_result_and_returned_trace(self, case, golden):
        got = fingerprint(run_case(case, record_trace=True))
        assert got["n_events"] > 50
        assert got == golden[case_id(case)]

    @pytest.mark.parametrize("case", [
        ("paper-2", "stationary", "expected", True),
        ("complete-20", "all_up", "sampled", True),
    ], ids=case_id)
    def test_block_sizes_are_invisible(self, case, golden):
        # Dozens of generation blocks and pool refills per batch, same-instant
        # chaos groups included: not one bit may depend on where they end.
        with small_blocks():
            got = fingerprint(run_case(case, record_trace=True))
        assert got == golden[case_id(case)]

    @pytest.mark.parametrize("case", [
        ("paper-2", "all_up", "expected", True),
        ("complete-20", "stationary", "sampled", False),
    ], ids=case_id)
    def test_hooks_run_once_an_instant_and_at_the_warm_up_split(self, case):
        config = build_config(case)
        seen = []
        result = SimulationEngine(
            config, MajorityConsensusProtocol(config.topology.total_votes),
            change_observer=lambda now, tracker, protocol: seen.append(now),
            record_trace=True,
        ).run_batch(0)
        instants = {time for time, _, _ in result.trace.events}
        assert len(instants) < len(result.trace.events) or not case[3]
        # The warm-up boundary splits an epoch and runs the hooks, eventless.
        assert seen == sorted(instants | {config.warmup_time})

    def test_trace_is_returned_only_on_request(self):
        assert run_case(CASES[0]).trace is None

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_sharded_engines(self, engine, golden):
        result = run_sharded(shard_config(), engine=engine)
        assert shard_fingerprint(result) == golden["sharded-ring-7"]

    def test_sharded_engines_stay_bitwise_equal_across_blocks(self):
        with small_blocks():
            vec = run_sharded(shard_config(), engine="vectorized")
            ref = run_sharded(shard_config(), engine="reference")
        assert vec.bitwise_equal(ref)
        assert min(b.n_events for b in vec.batches) > 3 * 5


class DiesAtTheKthGrant(MajorityConsensusProtocol):
    """Majority consensus that raises at its ``k``-th ``grant_masks`` call.

    It also notes how many flips the network state had seen before the
    loop and at every grant call, which is how the healthy run says what
    "the events applied before that epoch" are.
    """

    def __init__(self, total_votes, k=None):
        super().__init__(total_votes)
        self.k = k
        self.base_version = None
        self.versions = []

    def reset(self):
        super().reset()
        self.base_version = None
        self.versions = []

    def on_network_change(self, tracker):
        if self.base_version is None:  # the call before the loop
            self.base_version = tracker.state.version

    def grant_masks(self, tracker):
        self.versions.append(tracker.state.version - self.base_version)
        if len(self.versions) == self.k:
            raise RuntimeError("protocol died")
        return super().grant_masks(tracker)


QUARANTINE_CASES = [
    ("paper-2", "stationary", "expected", True),
    ("complete-20", "all_up", "sampled", False),
]


class TestQuarantineTrace:
    """A batch that dies mid-way carries exactly what was applied."""

    @pytest.mark.parametrize("case", QUARANTINE_CASES, ids=case_id)
    @pytest.mark.parametrize("blocks", ["shipped", "small"])
    def test_protocol_dies_at_the_kth_epoch(self, case, blocks):
        config = build_config(case)
        healthy = DiesAtTheKthGrant(config.topology.total_votes)
        full = SimulationEngine(config, healthy, record_trace=True).run_batch(0)
        applied_before = list(healthy.versions)
        assert len(applied_before) == full.n_epochs > 40
        assert applied_before[-1] == full.n_events == len(full.trace.events)

        for k in (1, 2, len(applied_before) // 2, len(applied_before)):
            dying = DiesAtTheKthGrant(config.topology.total_votes, k=k)
            with pytest.raises(BatchExecutionError) as caught:
                if blocks == "small":
                    with small_blocks():
                        SimulationEngine(config, dying).run_batch(0)
                else:
                    SimulationEngine(config, dying).run_batch(0)
            error, n = caught.value, applied_before[k - 1]
            assert error.trace.events == full.trace.events[:n]
            assert error.trace.sources == full.trace.sources[:n]
            assert np.array_equal(error.trace.initial_site_up,
                                  full.trace.initial_site_up)
            assert np.array_equal(error.trace.initial_link_up,
                                  full.trace.initial_link_up)
            assert error.sim_time == (full.trace.events[n - 1][0] if n else 0.0)
            assert isinstance(error.__cause__, RuntimeError)

    @pytest.mark.parametrize("applied_first", [0, 1])
    def test_an_event_that_cannot_be_applied_is_not_in_the_trace(self, applied_first):
        case = ("paper-2", "all_up", "expected", False)
        full = run_case(case, record_trace=True)
        cut = len(full.trace.events) // 2
        when = full.trace.events[cut][0]

        class BadSchedule(FaultSchedule):
            """Chaos on a link the topology does not have, maybe after a good one."""

            def prime(self, queue, topology):
                for _ in range(applied_first):
                    queue.schedule(when, EventKind.SITE_FAIL, 4, source=SOURCE_CHAOS)
                queue.schedule(when, EventKind.LINK_FAIL, 10**6, source=SOURCE_CHAOS)
                return 1 + applied_first

        config = build_config(case, fault_schedule=BadSchedule())
        protocol = MajorityConsensusProtocol(config.topology.total_votes)
        with pytest.raises(BatchExecutionError) as caught:
            SimulationEngine(config, protocol).run_batch(0)
        # The chaos events share their instant with a stochastic follow-up,
        # which was queued later and so comes last: everything before that
        # instant was applied, then the good chaos event if there is one; the
        # event that raised is not recorded, and nothing after it ran.
        good = [(when, "site_fail", 4)] * applied_first
        error = caught.value
        assert error.trace.events == full.trace.events[:cut] + good
        assert error.trace.sources == ["stochastic"] * cut + ["chaos"] * applied_first
        assert error.sim_time == (when if applied_first else full.trace.events[cut - 1][0])

    def test_a_non_topology_event_aborts_the_batch(self):
        class AccessSchedule(FaultSchedule):
            def prime(self, queue, topology):
                queue.schedule(1.0, EventKind.ACCESS, 0)
                return 1

        case = ("paper-2", "all_up", "expected", False)
        config = build_config(case, fault_schedule=AccessSchedule())
        protocol = MajorityConsensusProtocol(config.topology.total_votes)
        with pytest.raises(BatchExecutionError, match="cannot apply event kind"):
            SimulationEngine(config, protocol).run_batch(0)


if __name__ == "__main__":  # regenerate the golden (run at the parent commit)
    records = {case_id(case): fingerprint(run_case(case, record_trace=True))
               for case in CASES}
    records["sharded-ring-7"] = shard_fingerprint(
        run_sharded(shard_config(), engine="vectorized"))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")

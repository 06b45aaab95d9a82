"""Cross-process span re-parenting: one tree, any worker count.

The determinism contract (DESIGN.md §7): span ids derive from
``(seed, scope, index, ordinal)``, so the exported span tree — hashed by
:func:`span_tree_digest`, which sees only ``(id, parent, name)`` — is
bitwise identical whether batches run serially or fan out over a pool.
Tracing must also be purely observational: enabling it cannot change a
single result bit.
"""

import pytest

from repro.experiments.paper import TEST_SCALE
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.runner import run_simulation
from repro.telemetry.export import span_tree_digest
from repro.telemetry.recorder import Telemetry
from repro.telemetry.spans import SCOPE_RUN, SpanRecord, TraceContext

pytestmark = pytest.mark.slow


def _config(seed=0):
    return TEST_SCALE.config(2, alpha=0.5, seed=seed)


def _protocol(config):
    return MajorityConsensusProtocol(config.topology.total_votes)


def _records(result):
    return [SpanRecord.from_dict(s) for s in result.telemetry.spans]


@pytest.fixture(scope="module")
def traced_serial_and_parallel():
    config = _config()
    serial = run_simulation(config, _protocol(config),
                            telemetry=Telemetry(), n_workers=1)
    parallel = run_simulation(config, _protocol(config),
                              telemetry=Telemetry(), n_workers=4)
    return serial, parallel


class TestTreeDeterminism:
    def test_digest_identical_across_worker_counts(
            self, traced_serial_and_parallel):
        serial, parallel = traced_serial_and_parallel
        assert (span_tree_digest(_records(serial))
                == span_tree_digest(_records(parallel)))

    def test_single_root_spanning_the_fanout(
            self, traced_serial_and_parallel):
        _, parallel = traced_serial_and_parallel
        records = _records(parallel)
        by_id = {r.span_id: r for r in records}
        roots = [r for r in records
                 if r.parent_id is None or r.parent_id not in by_id]
        assert len(roots) == 1
        assert roots[0].name == "run.batches"
        assert roots[0].span_id == TraceContext(0, SCOPE_RUN, 0).span_id(0)

    def test_worker_spans_reparent_under_dispatcher(
            self, traced_serial_and_parallel):
        _, parallel = traced_serial_and_parallel
        records = _records(parallel)
        root = next(r for r in records if r.name == "run.batches")
        batch_spans = [r for r in records if r.name == "engine.run_batch"]
        assert len(batch_spans) == len(parallel.batches)
        assert all(r.parent_id == root.span_id for r in batch_spans)

    def test_digest_depends_on_seed(self):
        config = _config(seed=1)
        other = run_simulation(config, _protocol(config),
                               telemetry=Telemetry(), n_workers=1)
        base = _config(seed=0)
        baseline = run_simulation(base, _protocol(base),
                                  telemetry=Telemetry(), n_workers=1)
        assert (span_tree_digest(_records(other))
                != span_tree_digest(_records(baseline)))


class TestTracingIsObservational:
    def test_results_bitwise_identical_tracing_on_vs_off(self):
        config = _config()
        off = run_simulation(config, _protocol(config), n_workers=1)
        on = run_simulation(config, _protocol(config),
                            telemetry=Telemetry(), n_workers=1)
        assert off.availability.values == on.availability.values
        assert off.surv_read.values == on.surv_read.values
        assert off.surv_write.values == on.surv_write.values

    def test_serve_digest_identical_with_profiling(self):
        from repro.quorum.assignment import QuorumAssignment
        from repro.serving import ServeConfig, run_serve, serving_schedule
        from repro.simulation.workload import AccessWorkload
        from repro.topology.generators import ring_with_chords

        def build():
            topology = ring_with_chords(9, 1)
            config = ServeConfig(
                topology=topology,
                workload=AccessWorkload.uniform(9, 0.7),
                initial_assignment=QuorumAssignment.from_read_quorum(
                    topology.total_votes, 1
                ),
                n_requests=2_000,
                seed=5,
                scenario="correlated",
            )
            config.fault_schedule = serving_schedule(
                "correlated", topology, config.horizon)
            return config

        plain = run_serve(build())
        recorder = Telemetry()
        profiled = run_serve(build(), recorder)
        # Two runs of one seed, one with a live recorder for spans and
        # phases and one with none: outcomes must not move by a bit.
        assert recorder.snapshot().phases
        assert plain.digest() == profiled.digest()

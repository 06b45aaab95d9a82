"""The one batch loop: trace root, fail-fast, quarantine and its counter.

:class:`~repro.simulation.parallel.BatchLoop` (DESIGN.md §8) runs every
batch of ``run_simulation`` and ``run_chaos_campaign``: in-process at
``n_workers=1``, through the pool otherwise, with one outcome consumer.
These tests pin that there is one loop and that its two modes agree.
"""

import pytest

import repro.faults.chaos as chaos
import repro.simulation.parallel as parallel
import repro.simulation.runner as runner
import repro.telemetry.spans as spans
from repro.errors import BatchExecutionError, SimulationError
from repro.faults.chaos import run_chaos_campaign
from repro.faults.schedule import FaultSchedule
from repro.protocols.majority import MajorityConsensusProtocol
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.parallel import BatchLoop
from repro.simulation.runner import run_simulation
from repro.simulation.workload import AccessWorkload
from repro.telemetry.export import to_prometheus
from repro.telemetry.recorder import NullTelemetry, Telemetry
from repro.topology.generators import ring
from repro.telemetry.spans import SCOPE_BATCH, SCOPE_RUN, TraceContext

QUARANTINED = "repro_chaos_quarantined_total"


def _config(n_batches=4, seed=5):
    return SimulationConfig(
        topology=ring(7),
        workload=AccessWorkload.uniform(7, 0.5, 1.0),
        warmup_accesses=0.0,
        accesses_per_batch=300.0,
        n_batches=n_batches,
        initial_state="stationary",
        seed=seed,
    )


class _DiesAtOnce(MajorityConsensusProtocol):
    """Raises on its first call, before the batch's first event."""

    def on_network_change(self, tracker):
        raise RuntimeError("dies before the first event")


class _DiesIfStartedDegraded(MajorityConsensusProtocol):
    """Dies at set-up in batches whose stationary start has a component down.

    That depends on ``(seed, batch_index)`` alone, so the same batches
    die in-process and in a worker: 1 and 2 of 4 at seed 5.
    """

    def reset(self):
        super().reset()
        self._first = True

    def on_network_change(self, tracker):
        if self._first:
            self._first = False
            state = tracker.state
            if not (state.site_up.all() and state.link_up.all()):
                raise RuntimeError("started degraded")
        return super().on_network_change(tracker)


class _UnprimableSchedule(FaultSchedule):
    """A fault schedule whose priming raises: the walk is never built."""

    def prime(self, queue, topology):
        raise RuntimeError("schedule cannot be primed")


def test_the_process_pool_twins_are_gone():
    for module, name in [
        (runner, "_run_simulation_parallel"),
        (chaos, "_run_chaos_parallel"),
        (parallel, "run_batches_parallel"),
        (spans, "BatchTracer"),
    ]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestTraceRoot:
    def test_disabled_recorder_is_noop(self):
        config = _config(n_batches=1)
        with BatchLoop(config, MajorityConsensusProtocol(7), NullTelemetry(),
                       n_workers=1, fail_fast=True) as loop:
            loop.run([0])
        assert len(loop.batches) == 1
        assert loop.snapshot(seed=config.seed) is None

    def test_root_span_and_batch_contexts(self):
        config = _config()
        tel = Telemetry()
        with BatchLoop(config, MajorityConsensusProtocol(7), tel,
                       n_workers=1, fail_fast=True) as loop:
            loop.run([2])
        records = {r.name: r for r in tel.spans.records}
        root = records["run.batches"]
        assert root.span_id == TraceContext(config.seed, SCOPE_RUN, 0).span_id(0)
        assert root.attrs["protocol"] == "majority-consensus(T=7)"
        batch_span = records["engine.run_batch"]
        assert batch_span.span_id == TraceContext(
            config.seed, SCOPE_BATCH, 2).span_id(0)
        assert batch_span.parent_id == root.span_id

    @pytest.mark.slow
    def test_workers_run_batches_under_the_in_process_contexts(self):
        config = _config()
        trees = []
        for n_workers in (1, 2):
            with BatchLoop(config, MajorityConsensusProtocol(7), Telemetry(),
                           n_workers=n_workers, fail_fast=True) as loop:
                loop.run([2, 3])
            trees.append(sorted((s["span_id"], s["parent_id"], s["name"])
                                for s in loop.snapshot().spans))
        assert trees[0] == trees[1]


class TestFailFast:
    def test_serial_run_stops_at_the_first_failed_batch(self, monkeypatch):
        calls = []
        original = SimulationEngine.run_batch

        def run_batch(engine, batch_index):
            calls.append(batch_index)
            if batch_index == 1:
                raise BatchExecutionError("injected", batch_index=1)
            return original(engine, batch_index)

        monkeypatch.setattr(SimulationEngine, "run_batch", run_batch)
        with pytest.raises(BatchExecutionError):
            run_simulation(_config(n_batches=3), MajorityConsensusProtocol(7))
        assert calls == [0, 1]

    @pytest.mark.parametrize("n_workers", [1, pytest.param(2, marks=pytest.mark.slow)])
    def test_failure_before_the_first_event_is_quarantined(self, n_workers):
        report = run_chaos_campaign(_config(), _DiesAtOnce(7), n_batches=2,
                                    n_workers=n_workers)
        assert report.n_completed == 0
        assert [q.batch_index for q in report.quarantined] == [0, 1]
        for quarantine in report.quarantined:
            assert quarantine.error_type == "RuntimeError"
            assert len(quarantine.trace) == 0
            assert "0 events" in quarantine.describe()

    def test_schedule_that_cannot_be_primed_is_quarantined_without_trace(self):
        config = _config(n_batches=1).with_fault_schedule(_UnprimableSchedule())
        report = run_chaos_campaign(config, MajorityConsensusProtocol(7))
        (quarantine,) = report.quarantined
        assert quarantine.trace is None
        assert "cannot be primed" in quarantine.describe()
        assert "no trace" in quarantine.describe()

    @pytest.mark.parametrize("n_workers", [1, pytest.param(2, marks=pytest.mark.slow)])
    def test_failure_before_the_first_event_fails_fast(self, n_workers):
        with pytest.raises(BatchExecutionError) as excinfo:
            run_chaos_campaign(_config(), _DiesAtOnce(7), n_batches=2,
                               fail_fast=True, n_workers=n_workers)
        assert excinfo.value.batch_index == 0

    def test_run_where_every_batch_dies_is_an_error(self):
        with pytest.raises(SimulationError, match="every batch failed"):
            run_simulation(_config(n_batches=2), _DiesAtOnce(7), fail_fast=False)


class TestQuarantineCounter:
    def test_live_counter_is_the_same_in_both_modes(self):
        values = []
        for n_workers in (1, 2):
            tel = Telemetry()
            report = run_chaos_campaign(_config(), _DiesIfStartedDegraded(7),
                                        telemetry=tel, n_workers=n_workers)
            assert [q.batch_index for q in report.quarantined] == [1, 2]
            values.append(tel.metrics.get(QUARANTINED).value(
                protocol=report.protocol_name))
        assert values == [2.0, 2.0]

    @pytest.mark.slow
    def test_serial_then_parallel_on_one_recorder_exports_one_family(self):
        tel = Telemetry()
        run_chaos_campaign(_config(), _DiesIfStartedDegraded(7), telemetry=tel)
        report = run_chaos_campaign(_config(), _DiesIfStartedDegraded(7),
                                    telemetry=tel, n_workers=2)
        assert to_prometheus(report.telemetry).count(
            f"# TYPE {QUARANTINED} ") == 1
        assert report.telemetry.counter_value(QUARANTINED) == 4.0

    @pytest.mark.slow
    def test_serial_and_parallel_reports_carry_the_same_counter_families(self):
        families = []
        for n_workers in (1, 2):
            report = run_chaos_campaign(_config(), _DiesIfStartedDegraded(7),
                                        telemetry=Telemetry(),
                                        n_workers=n_workers)
            families.append(sorted(c["name"] for c in report.telemetry.counters))
        assert QUARANTINED in families[0]
        assert families[0] == families[1]


@pytest.mark.parametrize("target", [0.0, -0.01, float("nan")])
def test_unreachable_target_half_width_is_rejected(target):
    with pytest.raises(SimulationError, match="target_half_width"):
        run_simulation(_config(), MajorityConsensusProtocol(7),
                       target_half_width=target)

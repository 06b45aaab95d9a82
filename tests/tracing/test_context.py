"""TraceContext id derivation and collector scoping (DESIGN.md §7)."""

import pickle

import pytest

from repro.telemetry.recorder import Telemetry
from repro.telemetry.spans import (
    SCOPE_BATCH,
    SCOPE_RUN,
    SCOPE_SERVE,
    TraceContext,
)


class TestSpanIdDerivation:
    def test_deterministic(self):
        ctx = TraceContext(7, SCOPE_BATCH, 3)
        assert ctx.span_id(0) == TraceContext(7, SCOPE_BATCH, 3).span_id(0)

    def test_positive_63_bit(self):
        for ordinal in range(50):
            span_id = TraceContext(0, SCOPE_RUN, 0).span_id(ordinal)
            assert 1 <= span_id < 1 << 63

    def test_distinct_across_coordinates(self):
        ids = {
            TraceContext(seed, scope, index).span_id(ordinal)
            for seed in (0, 1)
            for scope in (SCOPE_RUN, SCOPE_BATCH, SCOPE_SERVE)
            for index in (0, 1, 2)
            for ordinal in (0, 1, 2)
        }
        assert len(ids) == 2 * 3 * 3 * 3

    def test_none_seed_is_stable(self):
        assert (TraceContext(None, SCOPE_RUN, 0).span_id(0)
                == TraceContext(None, SCOPE_RUN, 0).span_id(0))

    def test_child_shares_seed(self):
        parent = TraceContext(11, SCOPE_RUN, 0)
        child = parent.child(SCOPE_BATCH, 4, parent.span_id(0))
        assert child.seed == 11
        assert child.scope == SCOPE_BATCH
        assert child.index == 4
        assert child.parent_span_id == parent.span_id(0)

    def test_picklable(self):
        ctx = TraceContext(3, SCOPE_BATCH, 1, parent_span_id=99)
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestCollectorScoping:
    def test_scoped_ids_come_from_context(self):
        tel = Telemetry()
        ctx = TraceContext(5, SCOPE_BATCH, 0)
        with tel.spans.scoped(ctx):
            with tel.span("a"):
                with tel.span("b"):
                    pass
        records = {r.name: r for r in tel.spans.records}
        assert records["a"].span_id == ctx.span_id(0)
        assert records["b"].span_id == ctx.span_id(1)
        assert records["b"].parent_id == records["a"].span_id

    def test_root_span_adopts_context_parent(self):
        tel = Telemetry()
        ctx = TraceContext(5, SCOPE_BATCH, 0, parent_span_id=12345)
        with tel.spans.scoped(ctx):
            with tel.span("worker.root"):
                pass
        [record] = tel.spans.records
        assert record.parent_id == 12345

    def test_ordinal_restarts_per_activation(self):
        tel = Telemetry()
        ctx = TraceContext(5, SCOPE_BATCH, 0)
        with tel.spans.scoped(ctx):
            with tel.span("first"):
                pass
        with tel.spans.scoped(ctx):
            with tel.span("again"):
                pass
        first, again = tel.spans.records
        assert first.span_id == again.span_id == ctx.span_id(0)

    def test_contexts_nest_and_restore(self):
        tel = Telemetry()
        outer = TraceContext(5, SCOPE_RUN, 0)
        inner = TraceContext(5, SCOPE_BATCH, 2)
        with tel.spans.scoped(outer):
            with tel.span("o1"):
                pass
            with tel.spans.scoped(inner):
                with tel.span("i1"):
                    pass
            with tel.span("o2"):
                pass
        records = {r.name: r for r in tel.spans.records}
        assert records["o1"].span_id == outer.span_id(0)
        assert records["i1"].span_id == inner.span_id(0)
        # Back in the outer context, the ordinal continues where it left.
        assert records["o2"].span_id == outer.span_id(1)

    def test_sequential_ids_outside_any_context(self):
        tel = Telemetry()
        with tel.span("plain"):
            pass
        [record] = tel.spans.records
        assert record.span_id == 1


class TestSpanDropCounter:
    def test_drops_past_cap_are_counted(self):
        tel = Telemetry(max_spans=2)
        for i in range(5):
            with tel.span(f"s{i}"):
                pass
        snapshot = tel.snapshot()
        assert snapshot.span_overflow == 3
        [metric] = [m for m in snapshot.counters
                    if m["name"] == "repro_spans_dropped_total"]
        assert sum(s["value"] for s in metric["series"]) == 3

    def test_counter_survives_merge(self):
        from repro.telemetry.snapshot import TelemetrySnapshot

        snapshots = []
        for _ in range(2):
            tel = Telemetry(max_spans=1)
            for i in range(3):
                with tel.span(f"s{i}"):
                    pass
            snapshots.append(tel.snapshot())
        merged = TelemetrySnapshot.merged(snapshots)
        [metric] = [m for m in merged.counters
                    if m["name"] == "repro_spans_dropped_total"]
        assert sum(s["value"] for s in metric["series"]) == 4

    def test_no_drops_no_series(self):
        tel = Telemetry()
        with tel.span("fits"):
            pass
        snapshot = tel.snapshot()
        dropped = [m for m in snapshot.counters
                   if m["name"] == "repro_spans_dropped_total"]
        assert not dropped or not dropped[0]["series"]

"""Unit tests for span tracing: nesting, timing, and the overflow cap."""

from repro.telemetry.recorder import NULL, Telemetry
from repro.telemetry.spans import NULL_SPAN, SpanCollector


class TestNesting:
    def test_parent_child_links(self):
        spans = SpanCollector()
        with spans.span("outer") as outer:
            with spans.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        inner_rec, outer_rec = spans.records
        assert inner_rec.name == "inner"  # children finish first
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert spans.children_of(outer_rec.span_id) == [inner_rec]

    def test_siblings_share_parent(self):
        spans = SpanCollector()
        with spans.span("outer"):
            with spans.span("a"):
                pass
            with spans.span("b"):
                pass
        a, b = spans.by_name("a")[0], spans.by_name("b")[0]
        assert a.parent_id == b.parent_id

    def test_exception_still_records_and_unwinds(self):
        spans = SpanCollector()
        try:
            with spans.span("outer"):
                with spans.span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [r.name for r in spans.records] == ["inner", "outer"]
        with spans.span("next") as nxt:
            pass
        assert nxt.parent_id is None  # stack fully unwound

    def test_timings_nonnegative_and_ordered(self):
        spans = SpanCollector()
        with spans.span("outer"):
            with spans.span("inner"):
                sum(range(1000))
        inner, outer = spans.records
        assert inner.wall >= 0 and inner.cpu >= 0
        assert outer.wall >= inner.wall

    def test_attrs_preserved(self):
        spans = SpanCollector()
        with spans.span("s", batch=3, protocol="majority"):
            pass
        assert spans.records[0].attrs == {"batch": 3, "protocol": "majority"}


class TestOverflow:
    def test_cap_drops_records_but_not_aggregates(self):
        spans = SpanCollector(max_spans=2)
        for _ in range(5):
            with spans.span("tick"):
                pass
        assert len(spans) == 2
        assert spans.overflowed == 3
        # The aggregate histogram saw every span regardless of the cap.
        assert spans.seconds.count(name="tick") == 5


class TestNullPath:
    def test_null_span_is_shared_noop(self):
        with NULL_SPAN as s:
            assert s is NULL_SPAN

    def test_null_recorder_returns_null_span(self):
        assert NULL.span("anything", x=1) is NULL_SPAN
        assert not NULL.enabled

    def test_null_span_and_phase_are_one_shared_object(self):
        # One null object for both timed surfaces: the disabled path
        # allocates nothing, whichever a kernel opens.
        assert NULL.span("a") is NULL.phase("b") is NULL_SPAN

    def test_enabled_recorder_routes_to_collector(self):
        tel = Telemetry()
        with tel.span("work"):
            pass
        assert len(tel.spans) == 1
        assert tel.spans.records[0].name == "work"

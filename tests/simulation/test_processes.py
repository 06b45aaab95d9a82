"""Unit tests for the failure/repair processes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.rng import as_generator
from repro.simulation import processes as processes_module
from repro.simulation.events import EVENT_KINDS, SOURCE_CHAOS, EventKind, EventQueue
from repro.simulation.processes import FailureProcesses, reliability_to_repair_time
from repro.topology.generators import fully_connected, ring
from repro.topology.model import Topology


class TestReliabilityConversion:
    def test_paper_values(self):
        # reliability .96 at mu_f = 128 -> mu_r = 128/24.
        assert reliability_to_repair_time(0.96, 128.0) == pytest.approx(128.0 / 24.0)

    def test_round_trip(self):
        mu_f = 50.0
        for rel in (0.5, 0.9, 0.99):
            mu_r = reliability_to_repair_time(rel, mu_f)
            assert mu_f / (mu_f + mu_r) == pytest.approx(rel)

    def test_bounds(self):
        with pytest.raises(SimulationError):
            reliability_to_repair_time(1.0, 10.0)
        with pytest.raises(SimulationError):
            reliability_to_repair_time(0.0, 10.0)
        with pytest.raises(SimulationError):
            reliability_to_repair_time(0.9, 0.0)


class TestFailureProcesses:
    def test_component_indexing(self):
        topo = ring(5)
        procs = FailureProcesses(topo, 10.0, 1.0, seed=0)
        assert procs.n_components == 10

    def test_stationary_reliability(self):
        topo = ring(4)
        procs = FailureProcesses(topo, 96.0, 4.0, seed=0)
        np.testing.assert_allclose(procs.stationary_reliability(), 0.96)

    def test_a_component_that_never_fails_is_always_up(self):
        topo = ring(3)
        mttf = np.array([np.inf, 96.0, 96.0, np.inf, 96.0, 96.0])
        procs = FailureProcesses(topo, mttf, 4.0, seed=0)
        rel = procs.stationary_reliability()
        assert rel[0] == 1.0 and rel[3] == 1.0
        np.testing.assert_array_equal(rel[[1, 2, 4, 5]], 96.0 / 100.0)
        for seed in range(20):
            procs = FailureProcesses(topo, mttf, 4.0, seed=seed)
            site_up, link_up = procs.prime_stationary(EventQueue())
            assert site_up[0] and link_up[0]

    def test_never_failing_and_never_repaired_is_rejected(self):
        with pytest.raises(SimulationError, match="both inf"):
            FailureProcesses(ring(3), np.inf, np.inf)
        # Never repaired alone is a legal (absorbing) process.
        rel = FailureProcesses(ring(3), 10.0, np.inf).stationary_reliability()
        np.testing.assert_array_equal(rel, 0.0)

    def test_per_component_parameters(self):
        topo = ring(3)
        mttf = np.arange(1.0, 7.0)
        procs = FailureProcesses(topo, mttf, 1.0, seed=0)
        np.testing.assert_allclose(procs.mttf, mttf)

    def test_bad_parameter_shapes(self):
        topo = ring(3)
        with pytest.raises(SimulationError):
            FailureProcesses(topo, np.ones(5), 1.0)
        with pytest.raises(SimulationError):
            FailureProcesses(topo, -1.0, 1.0)

    def test_infallible_masks(self):
        topo = ring(4)
        procs = FailureProcesses(
            topo, 10.0, 1.0, seed=0,
            fallible_sites=np.array([True, False, True, True]),
            fallible_links=np.zeros(4, dtype=bool),
        )
        rel = procs.stationary_reliability()
        assert rel[1] == 1.0                     # infallible site
        np.testing.assert_allclose(rel[4:], 1.0)  # infallible links
        queue = EventQueue()
        procs.prime(queue)
        assert len(queue) == 3  # only the three fallible sites

    def test_prime_schedules_failures_for_everything(self):
        topo = ring(4)
        procs = FailureProcesses(topo, 10.0, 1.0, seed=1)
        queue = EventQueue()
        procs.prime(queue)
        assert len(queue) == 8
        kinds = {queue.pop().kind for _ in range(8)}
        assert kinds == {EventKind.SITE_FAIL, EventKind.LINK_FAIL}

    def test_failure_repair_alternation(self):
        topo = ring(3)
        procs = FailureProcesses(topo, 10.0, 1.0, seed=2)
        queue = EventQueue()
        procs.schedule_repair(queue, 5.0, EventKind.SITE_FAIL, 1)
        repair = queue.pop()
        assert repair.kind == EventKind.SITE_REPAIR
        assert repair.target == 1
        assert repair.time > 5.0
        procs.schedule_failure(queue, repair.time, repair.kind, repair.target)
        fail = queue.pop()
        assert fail.kind == EventKind.SITE_FAIL
        assert fail.time > repair.time

    def test_link_alternation(self):
        topo = ring(3)
        procs = FailureProcesses(topo, 10.0, 1.0, seed=3)
        queue = EventQueue()
        procs.schedule_repair(queue, 1.0, EventKind.LINK_FAIL, 2)
        assert queue.pop().kind == EventKind.LINK_REPAIR

    def test_deterministic_with_seed(self):
        topo = ring(4)
        q1, q2 = EventQueue(), EventQueue()
        FailureProcesses(topo, 10.0, 1.0, seed=7).prime(q1)
        FailureProcesses(topo, 10.0, 1.0, seed=7).prime(q2)
        for _ in range(8):
            assert q1.pop().time == q2.pop().time

    def test_empirical_uptime_fraction(self):
        """Long-run fraction of time up must match mttf/(mttf+mttr)."""
        topo = ring(3)
        procs = FailureProcesses(topo, 4.0, 1.0, seed=11)
        rng = procs.rng
        up_time = down_time = 0.0
        for _ in range(4000):
            up_time += rng.exponential(4.0)
            down_time += rng.exponential(1.0)
        assert up_time / (up_time + down_time) == pytest.approx(0.8, abs=0.01)


# ----------------------------------------------------------------------
# The generated history against the per-event API it replaced in the engines
# ----------------------------------------------------------------------

HISTORY_TOPOLOGIES = [Topology(1, []), ring(3), ring(8), fully_connected(8)]


def primed(spec, chaos=()):
    """A fresh ``(processes, queue)`` primed as ``spec`` says, chaos on top."""
    topology, seed, mttf, mttr, fallible, stationary = spec
    n_sites = topology.n_sites
    procs = FailureProcesses(
        topology, mttf, mttr, seed=seed,
        fallible_sites=fallible[:n_sites], fallible_links=fallible[n_sites:],
    )
    queue = EventQueue()
    if stationary:
        procs.prime_stationary(queue)
    else:
        procs.prime(queue)
    for time, kind, target in chaos:
        queue.schedule(time, kind, target, source=SOURCE_CHAOS)
    return procs, queue


def per_event_history(procs, queue, horizon):
    """The oracle: pop one ``Event`` at a time, schedule its follow-up."""
    rows = []
    while queue and queue.peek_time() < horizon:
        event = queue.pop()
        rows.append((event.time, EVENT_KINDS.index(event.kind),
                     event.target, event.is_chaos))
        if event.is_chaos:
            continue
        if event.kind.is_failure:
            procs.schedule_repair(queue, event.time, event.kind, event.target)
        else:
            procs.schedule_failure(queue, event.time, event.kind, event.target)
    return rows


def generated_history(procs, queue, horizon):
    blocks = list(procs.history(queue, horizon))
    return [row for block in blocks for row in block], blocks


@st.composite
def process_specs(draw):
    topology = draw(st.sampled_from(HISTORY_TOPOLOGIES))
    n = topology.n_sites + topology.n_links
    means = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
    vector = st.lists(means, min_size=n, max_size=n).map(np.array)
    mttf = draw(st.one_of(means, vector))
    mttr = draw(st.one_of(means, vector))
    fallible = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return (topology, draw(st.integers(0, 2**32 - 1)), mttf, mttr, fallible,
            draw(st.booleans()))


def chaos_events(draw, spec, times):
    """A few chaos events: one instant shared by several, times given."""
    topology = spec[0]
    kinds = EVENT_KINDS[:4] if topology.n_links else EVENT_KINDS[:2]
    events = []
    for time in times:
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(kinds))
            limit = topology.n_sites if kind in EVENT_KINDS[:2] else topology.n_links
            events.append((time, kind, draw(st.integers(0, limit - 1))))
    return events


def small_blocks(history=5, pool=3):
    return mock.patch.multiple(
        processes_module, _HISTORY_BLOCK=history, _POOL_BLOCK=pool)


class TestGeneratedHistory:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_equals_the_per_event_api_element_for_element(self, data):
        spec = data.draw(process_specs())
        horizon = data.draw(st.floats(min_value=0.0, max_value=40.0))
        scout = per_event_history(*primed(spec), horizon)
        # Chaos at a free time, at a primed event's time (the chaos event was
        # queued later, so it comes second) and at a follow-up's time (queued
        # earlier: first); a horizon that lands exactly on an event.
        times = [data.draw(st.floats(min_value=0.0, max_value=40.0))]
        if scout:
            times.append(scout[0][0])
            times.append(scout[data.draw(st.integers(0, len(scout) - 1))][0])
            if data.draw(st.booleans()):
                horizon = scout[data.draw(st.integers(0, len(scout) - 1))][0]
        chaos = chaos_events(data.draw, spec, times)

        want = per_event_history(*primed(spec, chaos), horizon)
        with small_blocks():
            got, blocks = generated_history(*primed(spec, chaos), horizon)
        assert got == want  # == on floats: bitwise
        assert all(row[0] < horizon for row in got)
        assert all(blocks)
        for before, after in zip(blocks, blocks[1:]):
            assert len(before) >= 5 and before[-1][0] != after[0][0]

    @pytest.mark.parametrize("stationary", [False, True])
    def test_long_history_crosses_pool_and_generation_blocks(self, stationary):
        spec = (fully_connected(8), 5, 6.0, 1.5, np.ones(36, dtype=bool), stationary)
        want = per_event_history(*primed(spec), 1000.0)
        got, blocks = generated_history(*primed(spec), 1000.0)
        assert len(want) > 2 * processes_module._POOL_BLOCK
        assert len(blocks) > 2 and got == want
        # ...and the same events whatever the blocks are, leftovers included.
        with small_blocks(history=7, pool=11):
            assert generated_history(*primed(spec), 1000.0)[0] == want

    def test_horizon_is_exclusive_and_the_rest_stays_queued(self):
        spec = (ring(4), 3, 10.0, 1.0, np.ones(8, dtype=bool), False)
        scout = per_event_history(*primed(spec), 50.0)
        cut = scout[len(scout) // 2][0]
        procs, queue = primed(spec)
        got, _ = generated_history(procs, queue, cut)
        assert got == [row for row in scout if row[0] < cut]
        assert queue.peek_time() == cut  # today's loop never applies it either
        assert len(queue) == 8           # one pending transition per component

    def test_chaos_events_schedule_no_follow_up(self):
        spec = (ring(4), 3, 10.0, 1.0, np.zeros(8, dtype=bool), False)
        chaos = [(2.0, EventKind.SITE_FAIL, 1), (2.0, EventKind.LINK_FAIL, 0),
                 (5.0, EventKind.SITE_REPAIR, 1)]
        procs, queue = primed(spec, chaos)
        got, _ = generated_history(procs, queue, 100.0)
        assert got == [(2.0, 0, 1, True), (2.0, 2, 0, True), (5.0, 1, 1, True)]
        assert not queue and not procs._pool  # nothing drawn, nothing pushed

    def test_a_block_never_ends_inside_an_instant(self):
        spec = (ring(4), 3, 10.0, 1.0, np.zeros(8, dtype=bool), False)
        chaos = [(1.0, EventKind.SITE_FAIL, 0)] + [
            (2.0, EventKind.LINK_FAIL, link) for link in range(4)
        ] + [(3.0, EventKind.SITE_REPAIR, 0)]
        with small_blocks(history=2):
            _, blocks = generated_history(*primed(spec, chaos), 100.0)
        assert [[row[0] for row in block] for block in blocks] == [
            [1.0, 2.0, 2.0, 2.0, 2.0], [3.0]]

    def test_sequence_numbers_continue_the_queues(self):
        # Zero delays put a component's follow-ups on the instant of its first
        # failure, which a chaos event shares: primed entry, then the chaos
        # event (queued next), then the follow-ups (numbered after both).
        spec = (ring(3), 1, 10.0, 1.0, np.ones(6, dtype=bool), False)
        procs, queue = primed(spec)
        first = queue.peek_time()
        queue.schedule(first, EventKind.SITE_REPAIR, 2, source=SOURCE_CHAOS)
        procs._pool.extend([0.0] * 3)
        got, _ = generated_history(procs, queue, np.nextafter(first, np.inf))
        assert [row[3] for row in got] == [False, True, False, False, False]
        codes = [row[1] for row in got if not row[3]]
        assert codes == [codes[0], codes[0] ^ 1] * 2  # fail, repair, fail, repair

    def test_non_topology_events_are_refused(self):
        procs, queue = primed((ring(3), 1, 10.0, 1.0, np.ones(6, dtype=bool), False))
        queue.schedule(0.0, EventKind.ACCESS, 0)
        with pytest.raises(SimulationError, match="cannot apply event kind"):
            list(procs.history(queue, 10.0))


def reference_prime_stationary(procs, queue):
    """``prime_stationary`` as it was: one scalar draw per component."""
    rng = procs.rng
    n_sites = procs.topology.n_sites
    reliability = procs.stationary_reliability()
    indices = np.nonzero(procs.fallible)[0]
    draws = rng.random(indices.shape[0])
    for component, u in zip(indices.tolist(), draws):
        up = bool(u < reliability[component])
        mean = procs.mttf[component] if up else procs.mttr[component]
        code = 2 * (component >= n_sites) + (not up)
        queue.schedule(float(rng.exponential(mean)), EVENT_KINDS[code],
                       component - n_sites * (component >= n_sites))


def drained(queue):
    return [(e.time, e.sequence, e.kind, e.target, e.source)
            for e in queue.drain_until(float("inf"))]


class TestDrawsAreNumpysScalarStream:
    """The block draws, against one ``rng.exponential`` call per delay."""

    @settings(max_examples=60, deadline=None)
    @given(process_specs())
    def test_vectorised_priming_is_the_per_component_loop(self, spec):
        procs, queue = primed(spec)
        twin = primed(spec[:5] + (False,))[0]  # same seed, generator untouched
        twin.rng = as_generator(spec[1])
        want = EventQueue()
        if spec[5]:
            reference_prime_stationary(twin, want)
        else:
            indices = np.nonzero(twin.fallible)[0]
            for component, delay in zip(indices.tolist(),
                                        twin.rng.exponential(twin.mttf[indices])):
                is_link = component >= twin.topology.n_sites
                want.schedule(float(delay), EVENT_KINDS[2 * is_link],
                              component - twin.topology.n_sites * is_link)
        assert drained(queue) == drained(want)

    def test_prime_stationary_returns_the_sampled_masks(self):
        queue = EventQueue()
        site_up, link_up = FailureProcesses(
            fully_connected(8), 4.0, 4.0, seed=9).prime_stationary(queue)
        assert site_up.shape == (8,) and link_up.shape == (28,)
        assert 0 < site_up.sum() + link_up.sum() < 36
        for event in queue.drain_until(float("inf")):
            up = (site_up if event.kind in EVENT_KINDS[:2] else link_up)[event.target]
            assert event.kind.is_failure == bool(up)

    def test_pooled_follow_ups_are_scalar_exponential_draws(self):
        mttf, mttr = np.arange(1.0, 7.0), np.arange(7.0, 13.0) / 3.0
        procs = FailureProcesses(ring(3), mttf, mttr, seed=21)
        raw = as_generator(21)
        queue = EventQueue()
        with small_blocks(pool=4):
            for i in range(19):  # mixed scales, more than four pool blocks
                target = i % 3
                if i % 2:
                    procs.schedule_failure(queue, 2.0, EventKind.LINK_REPAIR, target)
                    want = 2.0 + float(raw.exponential(mttf[3 + target]))
                else:
                    procs.schedule_repair(queue, 1.0, EventKind.SITE_FAIL, target)
                    want = 1.0 + float(raw.exponential(mttr[target]))
                assert queue.pop().time == want

    @pytest.mark.parametrize("method", ["prime", "prime_stationary"])
    def test_priming_after_a_pooled_draw_raises(self, method):
        procs = FailureProcesses(ring(3), 10.0, 1.0, seed=2)
        queue = EventQueue()
        procs.schedule_repair(queue, 0.0, EventKind.SITE_FAIL, 0)
        with pytest.raises(SimulationError, match="pool"):
            getattr(procs, method)(queue)


class TestNonFiniteMeans:
    @pytest.mark.parametrize("bad", [
        float("nan"), np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0]), 0.0, -1.0,
    ])
    def test_nan_and_non_positive_means_are_rejected(self, bad):
        with pytest.raises(SimulationError, match="positive"):
            FailureProcesses(ring(3), bad, 1.0)
        with pytest.raises(SimulationError, match="positive"):
            FailureProcesses(ring(3), 1.0, bad)

    def test_infinite_means_stay_legal(self):
        procs = FailureProcesses(ring(3), float("inf"), 1.0, seed=0)
        queue = EventQueue()
        procs.prime(queue)
        assert queue.peek_time() == float("inf")  # never fails
        assert list(procs.history(queue, 1e12)) == []

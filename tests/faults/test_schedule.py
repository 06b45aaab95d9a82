"""Fault schedules as data: validation, ordering, ownership, the builders."""

import hashlib

import pytest

from repro.errors import FaultInjectionError, ReproError
from repro.faults.schedule import FaultSchedule, cascade, correlated, flap, partition
from repro.quorum.assignment import QuorumAssignment
from repro.serving import SERVE_SCENARIOS, ServeConfig, serving_schedule
from repro.simulation.events import SOURCE_CHAOS, EventKind, EventQueue
from repro.simulation.workload import AccessWorkload
from repro.topology.generators import ring, ring_with_chords

FAIL, REPAIR = EventKind.SITE_FAIL, EventKind.SITE_REPAIR
CUT, HEAL = EventKind.LINK_FAIL, EventKind.LINK_REPAIR


@pytest.fixture
def topo():
    return ring(8)


class TestSiteCrash:
    """A site crash is two raw site events per site."""

    def test_events(self, topo):
        crash = FaultSchedule([(5.0, FAIL, 1), (5.0, FAIL, 3),
                               (9.0, REPAIR, 1), (9.0, REPAIR, 3)])
        events = crash.all_events(topo)
        assert (5.0, FAIL, 1) in events
        assert (5.0, FAIL, 3) in events
        assert (9.0, REPAIR, 1) in events
        assert len(events) == 4

    def test_no_heal_means_down_forever(self, topo):
        assert FaultSchedule([(2, FAIL, 0)]).all_events(topo) == [(2.0, FAIL, 0)]

    def test_owned_sites(self, topo):
        schedule = FaultSchedule([(1.0, FAIL, 2), (1.0, FAIL, 6)])
        assert schedule.owned_components(topo) == ([2, 6], [])

    def test_validation(self, topo):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            FaultSchedule([(-1.0, FAIL, 0)])
        with pytest.raises(FaultInjectionError, match="non-negative"):
            FaultSchedule([(float("nan"), FAIL, 0)])
        with pytest.raises(FaultInjectionError, match="site 99"):
            FaultSchedule([(1.0, FAIL, 99)]).all_events(topo)
        with pytest.raises(FaultInjectionError, match="site -1"):
            FaultSchedule([(1.0, FAIL, -1)]).owned_components(topo)


class TestLinkCut:
    def test_events(self, topo):
        link = topo.link_id(0, 1)
        cut = FaultSchedule([(2.0, HEAL, link), (1.0, CUT, link)])
        assert cut.all_events(topo) == [(1.0, CUT, link), (2.0, HEAL, link)]
        assert cut.owned_components(topo) == ([], [link])

    def test_missing_link_rejected(self, topo):
        with pytest.raises(FaultInjectionError, match=f"link {topo.n_links}"):
            FaultSchedule([(1.0, CUT, topo.n_links)]).prime(EventQueue(), topo)


class TestScriptedPartition:
    def test_cuts_exactly_the_cross_group_links(self, topo):
        cut = {target for _, _, target in partition(topo, 3.0, [[0, 1, 2, 3]])}
        # Ring 0-1-...-7-0: the only cross links are (3,4) and (7,0).
        assert cut == {topo.link_id(3, 4), topo.link_id(7, 0)}

    def test_explicit_two_groups(self, topo):
        cut = {target for _, _, target in partition(topo, 3.0, [[0, 1], [2, 3]])}
        # Links leaving {0,1} and {2,3} and between them: (1,2),(3,4),(7,0).
        assert cut == {topo.link_id(1, 2), topo.link_id(3, 4), topo.link_id(7, 0)}

    def test_heal_restores_every_cut_link(self, topo):
        events = partition(topo, 3.0, [[0, 1, 2, 3]], heal_at=8.0)
        fails = [e for e in events if e[1] is CUT]
        repairs = [e for e in events if e[1] is HEAL]
        assert {e[2] for e in fails} == {e[2] for e in repairs}
        assert all(e[0] == 8.0 for e in repairs)

    def test_overlapping_groups_rejected(self, topo):
        with pytest.raises(FaultInjectionError, match="disjoint"):
            partition(topo, 1.0, [[0, 1], [1, 2]])
        with pytest.raises(FaultInjectionError, match="site 8"):
            partition(topo, 1.0, [[8]])
        with pytest.raises(FaultInjectionError, match="heal time"):
            partition(topo, 5.0, [[0]], heal_at=5.0)


class TestFlappingSite:
    def test_cycles(self):
        events = flap(2, period=4.0, until=10.0, down_fraction=0.25)
        # Cycles start at 0, 4, 8 — each one fail + one repair 1.0 later.
        assert [t for t, kind, _ in events if kind is FAIL] == [0.0, 4.0, 8.0]
        assert [t for t, kind, _ in events if kind is REPAIR] == [1.0, 5.0, 9.0]
        assert all(target == 2 for _, _, target in events)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            flap(0, period=0.0, until=5.0)
        with pytest.raises(FaultInjectionError):
            flap(0, period=1.0, until=5.0, down_fraction=1.0)
        with pytest.raises(FaultInjectionError):
            flap(0, period=1.0, until=2.0, start=3.0)


class TestCascadingFailure:
    def test_staggered_failures(self):
        events = cascade(10.0, [4, 5, 6], delay=2.0, heal_at=20.0)
        assert [e for e in events if e[1] is FAIL] == [
            (10.0, FAIL, 4), (12.0, FAIL, 5), (14.0, FAIL, 6)]
        assert [e for e in events if e[1] is REPAIR] == [
            (20.0, REPAIR, 4), (20.0, REPAIR, 5), (20.0, REPAIR, 6)]

    def test_heal_must_follow_last_failure(self):
        with pytest.raises(FaultInjectionError):
            cascade(10.0, [0, 1, 2], delay=2.0, heal_at=13.0)


class TestCorrelatedFailure:
    def test_scripted_occurrences_fail_together(self):
        events = correlated([0, 1], at_times=[9.0, 5.0], down_time=2.0)
        assert sorted(t for t, kind, _ in events if kind is FAIL) == [5.0, 5.0, 9.0, 9.0]
        assert sorted(t for t, kind, _ in events if kind is REPAIR) == [7.0, 7.0, 11.0, 11.0]

    def test_validation(self):
        with pytest.raises(FaultInjectionError, match="down_time"):
            correlated([0], at_times=[1.0], down_time=0.0)
        with pytest.raises(FaultInjectionError, match="site"):
            correlated([], at_times=[1.0], down_time=1.0)
        with pytest.raises(FaultInjectionError, match="time"):
            correlated([0], at_times=[], down_time=1.0)


class TestFaultSchedule:
    def test_owned_components_union(self, topo):
        schedule = FaultSchedule([(1.0, FAIL, 0), (1.0, FAIL, 2),
                                  (2.0, CUT, topo.link_id(4, 5))])
        sites, links = schedule.owned_components(topo)
        assert sites == [0, 2]
        assert links == [topo.link_id(4, 5)]

    def test_prime_tags_events_as_chaos(self, topo):
        schedule = FaultSchedule([(1.0, FAIL, 0), (2.0, REPAIR, 0)])
        queue = EventQueue()
        n = schedule.prime(queue, topo)
        assert n == 2 and len(queue) == 2
        while queue:
            event = queue.pop()
            assert event.source == SOURCE_CHAOS and event.is_chaos

    def test_all_events_are_time_ordered(self, topo):
        schedule = FaultSchedule([(5.0, FAIL, 0)] + flap(1, period=2.0, until=8.0))
        times = [t for t, _, _ in schedule.all_events(topo)]
        assert times == sorted(times)

    def test_unsorted_input_is_stably_sorted_by_time(self):
        given = [(3.0, FAIL, 4), (1.0, FAIL, 2), (3.0, FAIL, 1), (1.0, REPAIR, 0)]
        assert FaultSchedule(given).events == (
            (1.0, FAIL, 2), (1.0, REPAIR, 0), (3.0, FAIL, 4), (3.0, FAIL, 1))

    def test_refuses_non_topology_events_and_malformed_faults(self):
        with pytest.raises(FaultInjectionError, match="topology events"):
            FaultSchedule([(1.0, EventKind.ACCESS, 0)])
        with pytest.raises(FaultInjectionError, match="topology events"):
            FaultSchedule([(1.0, "site_fail", 0)])
        with pytest.raises(FaultInjectionError, match="triple"):
            FaultSchedule(["not a fault"])

    def test_describe_is_derived_from_the_events(self, topo):
        schedule = FaultSchedule([(1.0, FAIL, 0), (2.0, CUT, topo.link_id(4, 5))])
        assert schedule.describe() == "2 events at t=1..2, sites [0], 1 links"
        assert FaultSchedule().describe() == "no faults"


#: sha256 of ``repr([(time, kind.value, target), ...])`` of
#: ``serving_schedule(S, ring_with_chords(13, 2), H).all_events(...)``,
#: with H the ``repro serve --duration-short`` horizon, as the
#: injector-class implementation produced them. The builders must
#: reproduce them event for event: serving digests and the golden corpus
#: depend on the order too.
SCENARIO_SHA256 = {
    "none": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "correlated": "d1dde2683c9523d12dca8f7943e64136d44e3b39305258b11a984e6555477dba",
    "partition": "69744f825a0e995ca86fe9477042d631f9869d6f470da4e321e9ce3e3449c346",
    "flap": "4098818e8fd6c0909a1fe51ff4f88c688348cae1ca9b6777c4cf237ca9cc861a",
    "cascade": "a510eb8711d062d6ec3429f915e9709c85e744ca8ffe631c5cea881e28e2ec06",
    "mixed": "8ee2ff058dfbcbf1b8689de0245dd64ce087d563498f746754cdfbfd2c54eb81",
}


@pytest.mark.parametrize("scenario", SERVE_SCENARIOS)
def test_scenario_table_events_are_pinned(scenario):
    topology = ring_with_chords(13, 2)
    horizon = ServeConfig(
        topology=topology,
        workload=AccessWorkload.uniform(13, 0.7),
        initial_assignment=QuorumAssignment.from_read_quorum(topology.total_votes, 1),
        n_requests=20_000,
    ).horizon
    events = serving_schedule(scenario, topology, horizon).all_events(topology)
    text = repr([(time, kind.value, target) for time, kind, target in events])
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_SHA256[scenario]


def test_scenario_table_covers_exactly_its_names():
    assert set(SCENARIO_SHA256) == set(SERVE_SCENARIOS)
    with pytest.raises(ReproError, match="unknown serving scenario"):
        serving_schedule("bogus", ring(8), 10.0)

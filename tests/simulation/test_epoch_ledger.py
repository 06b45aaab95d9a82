"""The epoch ledger against the per-epoch accounting it replaced.

``PerEpochLedger`` is the engine's former accounting block, one epoch at
a time, behind the ledger's interface; it is the oracle. The chunked
ledger must reproduce it bitwise in ``sampled`` mode for every chunk
alignment, and in ``expected`` mode everywhere except the two granted
volumes, whose masked row sum pairs terms differently from the oracle's
sum over the granted sites alone (1e-12 relative tier).

``expected`` mode has its own entry point, ``record_expected``: the
ledger buffers no volumes and derives a chunk's at flush from
``AccessWorkload.expected_epochs``. The oracle computes
``expected_epoch`` per epoch instead, and a ledger fed those per-epoch
rows through ``record`` (the path ``expected`` mode took before) must be
reproduced bitwise on everything, granted volumes included.

The ledger stores an epoch's ``(vote_totals, read_mask, write_mask)`` only
when one of the three is not the very object the epoch before handed in,
so every strategy here also re-uses the previous epoch's objects, hands in
equal copies of them, or keeps the totals and changes the masks; neither
oracle shares anything.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.estimator import OnlineDensityEstimator
from repro.simulation import engine as engine_module
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, _EpochLedger
from repro.simulation.workload import AccessWorkload, PhasedWorkload
from repro.topology.generators import ring_with_chords
from tests.oracles import TrackedQuorumConsensus

CHUNK = 4
N_SITES = 5
TOTAL_VOTES = 7


class PerEpochLedger:
    """The pre-ledger accounting: every epoch settled as it is recorded."""

    def __init__(self, n_sites, total_votes):
        self.reads_submitted = self.writes_submitted = 0.0
        self.reads_granted = self.writes_granted = 0.0
        self.surv_read_time = self.surv_write_time = 0.0
        self.n_epochs = 0
        self.n_events = 0
        self.density_time = OnlineDensityEstimator(n_sites, total_votes)
        self.density_access = OnlineDensityEstimator(n_sites, total_votes)
        self.max_votes_time = np.zeros(total_votes + 1, dtype=np.float64)

    def record(self, duration, vote_totals, reads, writes, read_mask, write_mask):
        self.reads_submitted += float(reads.sum())
        self.writes_submitted += float(writes.sum())
        self.reads_granted += float(reads[read_mask].sum())
        self.writes_granted += float(writes[write_mask].sum())
        if read_mask.any():
            self.surv_read_time += duration
        if write_mask.any():
            self.surv_write_time += duration
        self.density_time.observe_all(vote_totals, weight=duration)
        self.density_access.observe_counts(vote_totals, reads + writes)
        self.max_votes_time[int(vote_totals.max())] += duration
        self.n_epochs += 1

    def record_expected(self, duration, vote_totals, workload,
                        read_mask, write_mask):
        reads, writes = workload.expected_epoch(duration)
        self.record(duration, vote_totals, reads, writes, read_mask, write_mask)

    def flush(self):
        pass

    @property
    def sums(self):
        return np.array([
            self.reads_submitted, self.writes_submitted,
            self.reads_granted, self.writes_granted,
            self.surv_read_time, self.surv_write_time,
        ])


class RowFormLedger(_EpochLedger):
    """``expected`` mode as it ran before: per-epoch rows through ``record``."""

    __slots__ = ()

    def record_expected(self, duration, vote_totals, workload,
                        read_mask, write_mask):
        reads, writes = workload.expected_epoch(duration)
        self.record(duration, vote_totals, reads, writes, read_mask, write_mask)


def settle(ledger, epochs):
    for epoch in epochs:
        ledger.record(*epoch)
    ledger.flush()
    return ledger


def assert_same_histograms(ledger, oracle):
    assert ledger.n_epochs == oracle.n_epochs
    assert np.array_equal(ledger.density_time._weights, oracle.density_time._weights)
    assert np.array_equal(ledger.density_access._weights,
                          oracle.density_access._weights)
    assert np.array_equal(ledger.max_votes_time, oracle.max_votes_time)


def epoch_strategy(volumes):
    masks = st.one_of(
        st.just([False] * N_SITES),  # all denied
        st.lists(st.booleans(), min_size=N_SITES, max_size=N_SITES),
    )
    per_site = st.one_of(
        st.just([0] * N_SITES),  # zero-access epoch
        st.lists(volumes, min_size=N_SITES, max_size=N_SITES),
    )
    return st.tuples(
        st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
        st.lists(st.integers(0, TOTAL_VOTES), min_size=N_SITES,
                 max_size=N_SITES).map(lambda v: np.array(v, dtype=np.int64)),
        per_site, per_site,
        masks.map(np.array), masks.map(np.array),
    )


#: How an epoch's arrays relate to the previous epoch's (see ``shared``).
SHARING = st.sampled_from(["fresh", "same-objects", "equal-copies", "same-totals"])


def shared(drawn):
    """Rewrite drawn epochs so that neighbours share arrays as ``modes`` say."""
    epochs, modes = drawn
    out = []
    for (d, totals, reads, writes, rmask, wmask), mode in zip(epochs, modes):
        if out and mode != "fresh":
            _, p_totals, _, _, p_rmask, p_wmask = out[-1]
            if mode == "same-objects":  # the dense graphs' common case
                totals, rmask, wmask = p_totals, p_rmask, p_wmask
            elif mode == "equal-copies":  # equal is not identical: a new row
                totals, rmask, wmask = p_totals.copy(), p_rmask.copy(), p_wmask.copy()
            else:  # a protocol that re-decided on an unchanged partition
                totals = p_totals
        out.append((d, totals, reads, writes, rmask, wmask))
    return out


def sharing_lists(epoch, n):
    """``n`` epochs from ``epoch`` whose neighbours share arrays at random."""
    return st.tuples(
        st.lists(epoch, min_size=n, max_size=n),
        st.lists(SHARING, min_size=n, max_size=n),
    ).map(shared)


#: Epoch counts on either side of every chunk boundary.
EPOCH_COUNTS = st.sampled_from(
    [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
)


def epochs_strategy(volumes, dtype):
    def typed(epoch):
        d, totals, reads, writes, rmask, wmask = epoch
        return (d, totals, np.array(reads, dtype=dtype),
                np.array(writes, dtype=dtype), rmask, wmask)

    return EPOCH_COUNTS.flatmap(
        lambda n: sharing_lists(epoch_strategy(volumes).map(typed), n)
    )


#: Two phases with different alpha and different, non-uniform weights.
PHASE_SWITCH = 10.0
PHASES = PhasedWorkload([
    (0.0, AccessWorkload.with_distinct_read_write(
        0.3, np.arange(1.0, N_SITES + 1), np.arange(1.0, N_SITES + 1)[::-1])),
    (PHASE_SWITCH, AccessWorkload.with_distinct_read_write(
        0.8, np.arange(1.0, N_SITES + 1)[::-1] ** 2, np.ones(N_SITES))),
])


def expected_epochs_strategy():
    """``(duration, totals, workload, rmask, wmask)`` epochs, phase switching."""
    def phased(drawn):
        epochs, switch = drawn
        return [
            (d, totals, PHASES.at(0.0 if i < switch else PHASE_SWITCH), rmask, wmask)
            for i, (d, totals, _, _, rmask, wmask) in enumerate(epochs)
        ]

    return EPOCH_COUNTS.flatmap(
        lambda n: st.tuples(
            sharing_lists(epoch_strategy(st.just(0)), n),
            st.integers(0, n),  # 0 / n: the run never leaves one phase
        )
    ).map(phased)


def settle_expected(ledger, epochs):
    for epoch in epochs:
        ledger.record_expected(*epoch)
    ledger.flush()
    return ledger


class TestLedgerAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(epochs_strategy(st.integers(0, 10_000), np.int64))
    def test_sampled_volumes_are_bitwise(self, epochs):
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = settle(_EpochLedger(N_SITES, TOTAL_VOTES), epochs)
        oracle = settle(PerEpochLedger(N_SITES, TOTAL_VOTES), epochs)
        assert np.array_equal(ledger.sums, oracle.sums)
        assert_same_histograms(ledger, oracle)

    @settings(max_examples=150, deadline=None)
    @given(epochs_strategy(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False), np.float64))
    def test_expected_volumes_move_only_in_the_granted_sums(self, epochs):
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = settle(_EpochLedger(N_SITES, TOTAL_VOTES), epochs)
        oracle = settle(PerEpochLedger(N_SITES, TOTAL_VOTES), epochs)
        exact = [0, 1, 4, 5]  # submitted volumes and SURV times
        assert np.array_equal(ledger.sums[exact], oracle.sums[exact])
        assert ledger.sums[2:4] == pytest.approx(oracle.sums[2:4], rel=1e-12, abs=0)
        assert_same_histograms(ledger, oracle)

    @settings(max_examples=150, deadline=None)
    @given(expected_epochs_strategy())
    def test_expected_entry_point_is_bitwise_the_per_epoch_rows(self, epochs):
        # ``epochs`` switch PhasedWorkload phase somewhere, mid-chunk included.
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = settle_expected(_EpochLedger(N_SITES, TOTAL_VOTES), epochs)
            row_form = settle_expected(RowFormLedger(N_SITES, TOTAL_VOTES), epochs)
        oracle = settle_expected(PerEpochLedger(N_SITES, TOTAL_VOTES), epochs)
        assert np.array_equal(ledger.sums, row_form.sums)
        assert_same_histograms(ledger, row_form)
        exact = [0, 1, 4, 5]
        assert np.array_equal(ledger.sums[exact], oracle.sums[exact])
        assert ledger.sums[2:4] == pytest.approx(oracle.sums[2:4], rel=1e-12, abs=0)
        assert_same_histograms(ledger, oracle)

    def test_phase_switch_in_mid_chunk_settles_each_epoch_under_its_own_phase(self):
        totals = np.full(N_SITES, 3)
        granted = np.ones(N_SITES, dtype=bool)
        first, second = PHASES.at(0.0), PHASES.at(PHASE_SWITCH)
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = _EpochLedger(N_SITES, TOTAL_VOTES)
            ledger.record_expected(2.0, totals, first, granted, granted)
            ledger.record_expected(1.0, totals, second, granted, granted)
            assert ledger.n_epochs == 1  # the switch settled the first phase
            ledger.flush()
        rate = first.aggregate_rate
        assert ledger.sums[:2] == pytest.approx([
            rate * (2.0 * first.alpha + 1.0 * second.alpha),
            rate * (2.0 * (1 - first.alpha) + 1.0 * (1 - second.alpha)),
        ])

    def test_chunk_fills_flush_without_being_asked(self):
        epoch = (1.0, np.full(N_SITES, 3), np.ones(N_SITES), np.ones(N_SITES),
                 np.ones(N_SITES, dtype=bool), np.zeros(N_SITES, dtype=bool))
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = _EpochLedger(N_SITES, TOTAL_VOTES)
            for _ in range(CHUNK):
                ledger.record(*epoch)
        assert ledger.n_epochs == CHUNK
        assert ledger.sums.tolist() == [20.0, 20.0, 20.0, 0.0, 4.0, 0.0]


class TestRowsByIdentity:
    """What is stored once, and that nothing stored survives a flush."""

    TOTALS = np.array([3, 3, 0, 4, 4])
    SOME = np.array([True, True, False, True, True])
    NONE = np.zeros(N_SITES, dtype=bool)
    READS = np.arange(1.0, N_SITES + 1)

    def settle_both(self, epochs):
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = settle(_EpochLedger(N_SITES, TOTAL_VOTES), epochs)
        oracle = settle(PerEpochLedger(N_SITES, TOTAL_VOTES), epochs)
        assert np.array_equal(ledger.sums, oracle.sums)
        assert_same_histograms(ledger, oracle)
        return ledger

    def test_unchanged_epochs_take_one_row(self):
        epoch = (1.5, self.TOTALS, self.READS, self.READS, self.SOME, self.NONE)
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = _EpochLedger(N_SITES, TOTAL_VOTES)
            for _ in range(CHUNK - 1):
                ledger.record(*epoch)
            assert ledger._n_rows == 1
            assert ledger._row_of[:CHUNK - 1].tolist() == [0] * (CHUNK - 1)

    def test_a_flush_between_two_epochs_sharing_a_row(self):
        # CHUNK + 2 epochs of the very same objects: the chunk fills after
        # the fourth, and the fifth must be stored again, not looked up in a
        # buffer the flush emptied.
        epoch = (1.5, self.TOTALS, self.READS, self.READS, self.SOME, self.NONE)
        ledger = self.settle_both([epoch] * (CHUNK + 2))
        assert ledger.n_epochs == CHUNK + 2
        assert ledger.sums[4] == 1.5 * (CHUNK + 2) and ledger.sums[5] == 0.0

    def test_new_masks_on_the_same_totals_are_a_new_row(self):
        granted = (1.0, self.TOTALS, self.READS, self.READS, self.SOME, self.SOME)
        denied = (2.0, self.TOTALS, self.READS, self.READS, self.NONE, self.SOME)
        ledger = self.settle_both([granted, denied, granted])
        assert ledger.sums[4] == 2.0  # the denied epoch adds no read SURV time

    def test_equal_copies_settle_like_the_same_objects(self):
        epoch = (1.0, self.TOTALS, self.READS, self.READS, self.SOME, self.NONE)
        copies = (1.0, self.TOTALS.copy(), self.READS, self.READS,
                  self.SOME.copy(), self.NONE.copy())
        assert np.array_equal(self.settle_both([epoch, epoch, epoch]).sums,
                              self.settle_both([epoch, copies, epoch]).sums)

    def test_a_phase_switch_between_two_epochs_sharing_a_row(self):
        first, second = PHASES.at(0.0), PHASES.at(PHASE_SWITCH)
        epochs = [(2.0, self.TOTALS, first, self.SOME, self.NONE),
                  (1.0, self.TOTALS, first, self.SOME, self.NONE),
                  (4.0, self.TOTALS, second, self.SOME, self.NONE),
                  (0.5, self.TOTALS, second, self.SOME, self.NONE)]
        with mock.patch.object(engine_module, "_LEDGER_CHUNK", CHUNK):
            ledger = settle_expected(_EpochLedger(N_SITES, TOTAL_VOTES), epochs)
            row_form = settle_expected(RowFormLedger(N_SITES, TOTAL_VOTES), epochs)
        oracle = settle_expected(PerEpochLedger(N_SITES, TOTAL_VOTES), epochs)
        assert np.array_equal(ledger.sums, row_form.sums)
        assert_same_histograms(ledger, oracle)
        assert np.array_equal(ledger.sums[[0, 1, 4, 5]], oracle.sums[[0, 1, 4, 5]])
        assert ledger.sums[2:4] == pytest.approx(oracle.sums[2:4], rel=1e-12, abs=0)


SKEW = np.arange(1.0, 22.0)


def run_engine(accounting, ledger_cls, chunk,
               workload=AccessWorkload.with_distinct_read_write(0.6, SKEW, SKEW[::-1])):
    topo = ring_with_chords(21, 4)
    cfg = SimulationConfig(
        topology=topo,
        workload=workload,
        mean_time_to_failure=60.0,
        mean_time_to_repair=6.0,
        warmup_accesses=500.0,
        accesses_per_batch=6_000.0,
        n_batches=1,
        seed=11,
        accounting=accounting,
    )
    with mock.patch.object(engine_module, "_EpochLedger", ledger_cls), \
            mock.patch.object(engine_module, "_LEDGER_CHUNK", chunk):
        return SimulationEngine(cfg, TrackedQuorumConsensus(21)).run_batch(0)


SCALARS = ("reads_submitted", "writes_submitted", "surv_read", "surv_write",
           "measured_time", "n_epochs", "n_events")
GRANTED = ("reads_granted", "writes_granted")


class TestEngineAgainstOracle:
    """Whole batches, non-uniform ``read_weights``, chunk far below n_epochs,
    on the tracker loop, which feeds the ledger epoch by epoch."""

    @pytest.mark.parametrize("chunk", [7, 256])
    def test_sampled_batch_is_bitwise(self, chunk):
        got = run_engine("sampled", _EpochLedger, chunk)
        want = run_engine("sampled", PerEpochLedger, chunk)
        assert want.n_epochs > 3 * 7 and want.reads_granted > 0
        for name in SCALARS + GRANTED:
            assert getattr(got, name) == getattr(want, name), name
        assert_same_histograms(got, want)

    def test_expected_batch_moves_only_the_granted_volumes(self):
        got = run_engine("expected", _EpochLedger, 7)
        want = run_engine("expected", PerEpochLedger, 7)
        for name in SCALARS:
            assert getattr(got, name) == getattr(want, name), name
        for name in GRANTED:
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-12, abs=0), name
        assert_same_histograms(got, want)

    def test_expected_phased_batch_is_bitwise_the_row_form(self):
        # ~285 measured time units; the switches fall inside chunks.
        phased = PhasedWorkload([
            (0.0, AccessWorkload.with_distinct_read_write(0.6, SKEW, SKEW[::-1])),
            (90.0, AccessWorkload.with_distinct_read_write(0.1, SKEW[::-1], SKEW)),
            (200.0, AccessWorkload.uniform(21, 0.9)),
        ])
        got = run_engine("expected", _EpochLedger, 7, phased)
        want = run_engine("expected", RowFormLedger, 7, phased)
        oracle = run_engine("expected", PerEpochLedger, 7, phased)
        assert want.n_epochs > 3 * 7 and want.reads_granted > 0
        for name in SCALARS + GRANTED:
            assert getattr(got, name) == getattr(want, name), name
        assert_same_histograms(got, want)
        for name in SCALARS:
            assert getattr(got, name) == getattr(oracle, name), name
        assert_same_histograms(got, oracle)

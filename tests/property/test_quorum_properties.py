"""Property-based tests (hypothesis) for the quorum machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quorum.assignment import QuorumAssignment
from repro.quorum.availability import AvailabilityModel
from repro.quorum.constraints import feasible_read_quorums, optimize_with_write_floor
from repro.quorum.optimizer import optimal_read_quorum
from repro.errors import OptimizationError
from tests.oracles import vote_quorum_groups


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def densities(draw, min_votes=2, max_votes=30):
    """A random normalized density over 0..T."""
    T = draw(st.integers(min_votes, max_votes))
    raw = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=T + 1, max_size=T + 1)
    )
    arr = np.asarray(raw, dtype=np.float64) + 1e-9  # avoid all-zero
    return arr / arr.sum()


@st.composite
def models(draw):
    f = draw(densities())
    g_raw = draw(st.one_of(st.none(), densities()))
    if g_raw is None or g_raw.shape != f.shape:
        g = f
    else:
        g = g_raw
    return AvailabilityModel(f, g)


vote_vectors = st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(
    lambda v: sum(v) > 0
)


# ----------------------------------------------------------------------
# Quorum assignment invariants
# ----------------------------------------------------------------------

class TestAssignmentProperties:
    @given(st.integers(1, 500))
    def test_paper_convention_always_valid(self, T):
        """q_w = T - q_r + 1 satisfies both section 2.1 conditions for
        every feasible q_r."""
        for q_r in range(1, max(T // 2, 1) + 1):
            qa = QuorumAssignment.from_read_quorum(T, q_r)
            assert qa.read_quorum + qa.write_quorum > T
            assert 2 * qa.write_quorum > T

    @given(st.integers(1, 300))
    def test_named_instances_valid(self, T):
        QuorumAssignment.majority(T)
        QuorumAssignment.read_one_write_all(T)

    @given(st.integers(2, 200), st.data())
    def test_read_write_quorums_intersect_in_votes(self, T, data):
        """Any two vote sets meeting q_r and q_w respectively must share
        votes: votes(A) + votes(B) - T > 0."""
        q_r = data.draw(st.integers(1, T // 2))
        qa = QuorumAssignment.from_read_quorum(T, q_r)
        assert qa.read_quorum + qa.write_quorum - T >= 1
        assert 2 * qa.write_quorum - T >= 1


# ----------------------------------------------------------------------
# Availability function invariants
# ----------------------------------------------------------------------

class TestAvailabilityProperties:
    @given(models(), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_curve_within_unit_interval(self, model, alpha):
        curve = model.curve(alpha)
        assert ((0.0 - 1e-12 <= curve) & (curve <= 1.0 + 1e-12)).all()

    @given(models())
    @settings(max_examples=60)
    def test_read_curve_monotone_nonincreasing(self, model):
        quorums = model.feasible_read_quorums()
        reads = np.asarray(model.read_availability(quorums))
        assert (np.diff(reads) <= 1e-12).all()

    @given(models())
    @settings(max_examples=60)
    def test_write_curve_monotone_nondecreasing(self, model):
        quorums = model.feasible_read_quorums()
        writes = np.asarray(model.write_availability_at(quorums))
        assert (np.diff(writes) >= -1e-12).all()

    @given(models(), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_availability_is_convex_combination(self, model, alpha):
        """A(alpha, q) must lie between the pure-read and pure-write curves."""
        curve = model.curve(alpha)
        reads = model.curve(1.0)
        writes = model.curve(0.0)
        lo = np.minimum(reads, writes) - 1e-12
        hi = np.maximum(reads, writes) + 1e-12
        assert ((lo <= curve) & (curve <= hi)).all()

    @given(models())
    @settings(max_examples=40)
    def test_alpha_monotone_when_reads_beat_writes_everywhere(self, model):
        """If R(q) >= W(T-q+1) for every q, increasing alpha can only help."""
        reads = model.curve(1.0)
        writes = model.curve(0.0)
        if (reads >= writes).all():
            a_lo = model.curve(0.3)
            a_hi = model.curve(0.7)
            assert (a_hi >= a_lo - 1e-12).all()


# ----------------------------------------------------------------------
# Optimizer invariants
# ----------------------------------------------------------------------

class TestOptimizerProperties:
    @given(models(), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_exhaustive_attains_true_maximum(self, model, alpha):
        res = optimal_read_quorum(model, alpha)
        curve = model.curve(alpha)
        assert res.availability >= curve.max() - 1e-12
        assert res.availability == float(curve[res.read_quorum - 1])

    @given(models(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_write_floor_feasibility_and_optimality(self, model, alpha, floor):
        feasible = feasible_read_quorums(model, floor)
        if feasible.size == 0:
            try:
                optimize_with_write_floor(model, alpha, floor)
                assert False, "expected OptimizationError"
            except OptimizationError:
                return
        res = optimize_with_write_floor(model, alpha, floor)
        assert res.read_quorum in feasible.tolist()
        write = float(np.asarray(model.write_availability_at(res.read_quorum)))
        assert write >= floor - 1e-12
        values = np.asarray(model.availability(alpha, feasible))
        assert res.availability >= float(values.max()) - 1e-12


# ----------------------------------------------------------------------
# Coterie invariants
# ----------------------------------------------------------------------

class TestCoterieProperties:
    @given(vote_vectors, st.data())
    @settings(max_examples=60)
    def test_any_majority_vote_coterie_is_valid(self, votes, data):
        total = sum(votes)
        q_w = data.draw(st.integers(total // 2 + 1, total))
        coterie = vote_quorum_groups(votes, q_w)
        assert coterie
        for group in coterie:
            # Every group carries q_w votes, and the groups form a
            # coterie: pairwise intersecting, none inside another.
            assert sum(votes[site] for site in group) >= q_w
            for other in coterie:
                assert group & other
                assert group == other or not group <= other

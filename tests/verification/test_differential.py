"""The differential battery: engines agree, and the verifier catches bugs.

The expensive whole-profile run happens once in a module fixture; every
structural assertion reads from it. The deliberate off-by-one injection
is the acceptance demonstration: the same battery that passes on main
must fail when a quorum threshold is shifted by one.
"""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.quorum.availability import AvailabilityModel
from repro.verification import (
    ENGINE_PAIRS,
    METAMORPHIC_RELATIONS,
    run_case,
    run_profile,
)
from repro.verification.cases import profile_cases
from repro.verification.witnesses import (
    OffByOneModel,
    closed_form_engine,
    enumeration_engine,
    grant_mask_mismatch,
    montecarlo_engine,
    simulation_engine_run,
    with_injected_bug,
)

pytestmark = pytest.mark.slow  # the module fixture runs full profiles


@pytest.fixture(scope="module")
def quick_report():
    return run_profile("quick", golden=True)


@pytest.fixture(scope="module")
def bug_report():
    return run_profile("quick", bug="quorum-off-by-one")


class TestQuickProfile:
    def test_everything_passes_on_main(self, quick_report):
        assert quick_report.passed, quick_report.summary()

    def test_at_least_four_engine_pairs(self, quick_report):
        assert len(quick_report.engine_pairs) >= 4
        assert set(quick_report.engine_pairs) <= set(ENGINE_PAIRS)

    def test_every_engine_pair_exercised(self, quick_report):
        assert quick_report.engine_pairs == ENGINE_PAIRS

    def test_at_least_four_metamorphic_relations(self, quick_report):
        assert len(quick_report.relations) >= 4
        assert set(METAMORPHIC_RELATIONS) <= set(quick_report.relations)

    def test_every_paper_claim_row_exercised(self, quick_report):
        rows = {"convergence-identity", "write-floor", "upper-envelope",
                "acc-ceiling"}
        assert rows <= set(quick_report.relations)
        density = {r.metric for r in quick_report.results
                   if r.check == "closed-form|simulation"}
        assert {"f(0)", "f(7)"} <= density

    def test_covers_ring_complete_bus(self, quick_report):
        case_families = {c.family for c in profile_cases("quick")}
        assert case_families == {"ring", "complete", "bus"}
        names = {c.name for c in profile_cases("quick")}
        assert names <= set(quick_report.cases)

    def test_golden_corpus_included(self, quick_report):
        assert any(r.check == "golden-corpus" for r in quick_report.results)

    def test_summary_reports_coverage_and_drift(self, quick_report):
        text = quick_report.summary()
        assert "engine pairs (15)" in text
        assert "metamorphic relations (12)" in text
        assert "highest drift" in text
        assert "0 failed" in text

    def test_worst_drift_is_sorted(self, quick_report):
        drifts = [r.drift for r in quick_report.worst_drift(10)]
        assert drifts == sorted(drifts, reverse=True)


class TestBugInjection:
    def test_off_by_one_fails_the_battery(self, bug_report):
        assert not bug_report.passed
        assert len(bug_report.failures) > 0

    def test_exact_pairs_catch_it(self, bug_report):
        failed_checks = {r.check for r in bug_report.failures}
        assert "closed-form|enumeration" in failed_checks

    def test_metamorphic_relations_catch_it(self, bug_report):
        failed_checks = {r.check for r in bug_report.failures}
        assert "alpha-symmetry" in failed_checks
        assert "alpha-extremes" in failed_checks
        assert "convergence-identity" in failed_checks

    def test_summary_names_the_injection(self, bug_report):
        assert "quorum-off-by-one" in bug_report.summary()

    def test_unknown_bug_is_config_error(self):
        case = profile_cases("quick")[0]
        with pytest.raises(VerificationError, match="unknown bug"):
            run_case(case, bug="quorum-off-by-two")


class TestEngines:
    def test_exact_engines_agree_to_float_roundoff(self):
        case = profile_cases("quick")[0]
        closed = closed_form_engine(case)
        enum = enumeration_engine(case)
        a = closed.availability_estimates(case)
        b = enum.availability_estimates(case)
        for metric in a:
            assert a[metric].value == pytest.approx(b[metric].value, abs=1e-9)
            assert a[metric].exact and b[metric].exact

    def test_montecarlo_is_seed_deterministic(self):
        case = profile_cases("quick")[0]
        one = montecarlo_engine(case).availability_estimates(case)
        two = montecarlo_engine(case).availability_estimates(case)
        assert all(one[m].value == two[m].value for m in one)
        assert all(not one[m].exact or m == "q*" for m in one)

    def test_simulation_requires_sim_quorum(self):
        bus_case = next(c for c in profile_cases("quick")
                        if c.sim_read_quorum is None)
        with pytest.raises(VerificationError, match="sim_read_quorum"):
            simulation_engine_run(bus_case)

    def test_parallel_is_bitwise_identical(self):
        case = next(c for c in profile_cases("quick")
                    if c.sim_read_quorum is not None)
        serial = simulation_engine_run(case, n_workers=1)
        parallel = simulation_engine_run(case, n_workers=2)
        assert serial.batch_acc == parallel.batch_acc
        assert serial.batch_surv == parallel.batch_surv

    def test_audit_reconciles_exactly(self):
        case = next(c for c in profile_cases("quick")
                    if c.sim_read_quorum is not None)
        run = simulation_engine_run(case, with_telemetry=True)
        assert run.audit_acc == pytest.approx(run.pooled_acc, abs=1e-12)

    def test_reassignment_matches_static_grants(self):
        for case in profile_cases("quick"):
            fraction, n_states = grant_mask_mismatch(case)
            assert fraction == 0.0
            assert n_states == case.protocol_states


class TestOffByOneModel:
    def test_shifts_every_quorum(self):
        case = profile_cases("quick")[0]
        healthy = closed_form_engine(case)
        broken = with_injected_bug(healthy, "quorum-off-by-one")
        assert isinstance(broken.model, OffByOneModel)
        for q in range(1, case.total_votes):
            assert broken.model.availability(0.5, q) == pytest.approx(
                healthy.model.availability(0.5, q + 1)
            )

    def test_curve_routes_through_the_bug(self):
        case = profile_cases("quick")[0]
        healthy = closed_form_engine(case).model
        broken = OffByOneModel(healthy.read_density, healthy.write_density)
        assert not np.allclose(broken.curve(0.5), healthy.curve(0.5))

    def test_no_bug_is_identity(self):
        case = profile_cases("quick")[0]
        engine = closed_form_engine(case)
        assert with_injected_bug(engine, None) is engine

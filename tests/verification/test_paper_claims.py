"""The paper's checkable claims, as rows of the one fidelity battery.

DESIGN.md §9 maps every claim to the ``repro verify`` row that checks
it. The rows added for claims no engine pair covered are pinned here
(the §3 envelope in ``tests/quorum/test_bounds.py``): each is exact
(or CI-aware) on healthy code and fails on the defect it exists to
catch.
"""

import pytest

from repro.quorum.optimizer import optimal_read_quorum
from repro.verification import differential, metamorphic
from repro.verification.cases import profile_cases
from repro.verification.metamorphic import run_relation
from repro.verification.tolerance import Estimate
from repro.verification.witnesses import SimulationEngineRun

QUICK = profile_cases("quick")


class TestConvergenceIdentity:
    @pytest.mark.parametrize("case", QUICK, ids=lambda c: c.name)
    def test_exact_on_healthy_code(self, case):
        [row] = run_relation("convergence-identity", case)
        assert row.passed and row.value_a <= 1e-15

    @pytest.mark.parametrize("case", QUICK, ids=lambda c: c.name)
    def test_off_by_one_breaks_it(self, case):
        # The bug shifts the read and the write quorum by one, so the
        # spread at floor(T/2) loses the middle band.
        [row] = run_relation("convergence-identity", case, "quorum-off-by-one")
        assert not row.passed
        assert row.value_a > 1e-3


class TestWriteFloor:
    @pytest.mark.parametrize("case", QUICK, ids=lambda c: c.name)
    def test_floor_holds_and_costs(self, case):
        [row] = run_relation("write-floor", case)
        assert row.passed and row.value_a == 0.0

    def test_an_ignored_floor_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            metamorphic, "optimize_with_write_floor",
            lambda model, alpha, floor: optimal_read_quorum(model, alpha))
        [row] = run_relation("write-floor", QUICK[0])
        assert not row.passed


class TestAccCeiling:
    def _ceiling(self, monkeypatch, pooled_acc):
        case = QUICK[0]
        run = SimulationEngineRun(
            name="simulation",
            acc=Estimate(pooled_acc, 1e-3),
            surv=Estimate(pooled_acc),
            batch_acc=(pooled_acc,),
            batch_surv=(pooled_acc,),
            pooled_acc=pooled_acc,
            audit_acc=pooled_acc,
            density=tuple(Estimate(0.0) for _ in range(case.total_votes + 1)),
        )
        monkeypatch.setattr(differential, "simulation_engine_run",
                            lambda case, **kwargs: run)
        rows = differential._simulation_checks(case, None)
        [row] = [r for r in rows if r.check == "acc-ceiling"]
        return row

    def test_acc_below_p_passes(self, monkeypatch):
        row = self._ceiling(monkeypatch, 0.5)
        assert row.passed and row.value_a == 0.0

    def test_acc_above_p_is_caught(self, monkeypatch):
        row = self._ceiling(monkeypatch, QUICK[0].p + 0.05)
        assert not row.passed
        assert row.value_a == pytest.approx(0.05)

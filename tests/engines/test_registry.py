"""The engine registry: registration contract and built-in coverage."""

import pytest

from repro.engines import (
    KIND_DENSITY_MODEL,
    KIND_MODEL,
    KIND_SIMULATION,
    EngineSpec,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.errors import VerificationError
from repro.verification.cases import profile_cases

BUILTINS = {
    "closed-form": KIND_MODEL,
    "enumeration": KIND_MODEL,
    "enum-exact-order": KIND_MODEL,
    "monte-carlo": KIND_MODEL,
    "mc-stratified": KIND_MODEL,
    "mc-importance": KIND_MODEL,
    "simulation": KIND_SIMULATION,
    "parallel": KIND_SIMULATION,
    "sharded": KIND_SIMULATION,
    "sharded-reference": KIND_SIMULATION,
    "online-density": KIND_DENSITY_MODEL,
}


def _spec(name="test-double", kind=KIND_MODEL, **kwargs):
    kwargs.setdefault("description", "a test double")
    kwargs.setdefault("builder", lambda case: None)
    return EngineSpec(name=name, kind=kind, **kwargs)


class TestRegistration:
    def test_register_get_unregister_roundtrip(self):
        spec = register_engine(_spec())
        try:
            assert get_engine("test-double") is spec
        finally:
            unregister_engine("test-double")
        with pytest.raises(VerificationError, match="unknown engine"):
            get_engine("test-double")

    def test_duplicate_rejected_without_replace(self):
        register_engine(_spec())
        try:
            with pytest.raises(VerificationError, match="already registered"):
                register_engine(_spec())
            replacement = register_engine(_spec(), replace=True)
            assert get_engine("test-double") is replacement
        finally:
            unregister_engine("test-double")

    def test_unregister_unknown_is_noop(self):
        unregister_engine("never-registered")

    def test_unknown_name_lists_known_engines(self):
        with pytest.raises(VerificationError, match="closed-form"):
            get_engine("no-such-engine")

    def test_kind_mismatch_is_an_error(self):
        with pytest.raises(VerificationError, match="kind"):
            get_engine("closed-form", kind=KIND_SIMULATION)

    def test_unknown_kind_rejected_at_spec_construction(self):
        with pytest.raises(VerificationError, match="unknown kind"):
            _spec(kind="oracle")

    def test_builder_required(self):
        with pytest.raises(VerificationError, match="no builder"):
            EngineSpec(name="x", kind=KIND_MODEL, description="d")


class TestBuiltins:
    def test_all_builtins_registered_with_expected_kind(self):
        for name, kind in BUILTINS.items():
            assert get_engine(name, kind=kind).name == name

    def test_listing_is_cost_ordered_within_kind(self):
        specs = list_engines(kind=KIND_MODEL)
        assert [s.name for s in specs] == sorted(
            (s.name for s in specs),
            key=lambda n: (get_engine(n).cost_rank, n),
        )

    def test_capability_filter(self):
        names = {s.name for s in list_engines(capability="variance-reduced")}
        assert names == {"mc-stratified", "mc-importance"}
        exact = {s.name for s in list_engines(capability="exact")}
        assert {"closed-form", "enumeration"} <= exact

    def test_every_model_engine_builds_from_a_case(self):
        case = profile_cases("quick")[0]
        for spec in list_engines(kind=KIND_MODEL):
            engine = spec.build(case)
            if engine is None:  # engine does not apply to this case
                continue
            estimates = engine.availability_estimates(case)
            assert 0.0 <= estimates["A*"].value <= 1.0

    def test_mc_importance_reports_effective_samples(self):
        case = profile_cases("quick")[0]
        engine = get_engine("mc-importance", kind=KIND_MODEL).build(case)
        # Kish effective size: positive and never above the raw budget.
        assert 0 < engine.n_samples <= case.mc_samples

    def test_online_density_builds_availability_model(self):
        import numpy as np

        from repro.analytic.ring import ring_density_matrix
        from repro.quorum.availability import AvailabilityModel
        from repro.topology.generators import ring

        matrix = ring_density_matrix(ring(7), 0.9, 0.9)
        model = get_engine("online-density", kind=KIND_DENSITY_MODEL).build(
            matrix, None, None)
        assert isinstance(model, AvailabilityModel)
        assert np.isfinite(model.availability(0.5, 4))

"""The model witnesses the differential battery crosses, one at a time."""

from repro.verification.cases import profile_cases
from repro.verification.differential import MODEL_ENGINES


class TestModelWitnesses:
    def test_every_model_engine_builds_from_a_case(self):
        case = profile_cases("quick")[0]
        for name, build in MODEL_ENGINES:
            engine = build(case)
            if engine is None:  # witness does not apply to this case
                continue
            assert engine.name == name
            estimates = engine.availability_estimates(case)
            assert 0.0 <= estimates["A*"].value <= 1.0

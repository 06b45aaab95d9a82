"""Differential verification: cross-engine oracles, metamorphic
properties, and a golden regression corpus.

The repo computes the paper's availability quantities along several
independent paths (closed forms, exact enumeration, static Monte-Carlo
and its variance-reduced variants, discrete-event simulation, parallel
fan-out) plus protocol- and telemetry-level surfaces — all registered in
:mod:`repro.engines`. This package turns that redundancy into an
executable oracle:

- :mod:`~repro.verification.differential` crosses every applicable
  engine pair with confidence-interval-aware tolerances
  (:mod:`~repro.verification.tolerance`).
- :mod:`~repro.verification.metamorphic` checks identities the algebra
  must obey regardless of engine (monotonicity, read/write symmetry,
  access-mix extremes, relabeling invariance).
- :mod:`~repro.verification.golden` locks reference results (paper-figure
  values and seeded engine outputs) in the repository and reports
  per-metric drift.

Entry point: ``python -m repro verify`` (exit 0 = all checks pass,
1 = divergence, 2 = configuration error).

Exports resolve lazily (PEP 562) so leaf submodules — ``cases`` and
``tolerance``, which :mod:`repro.engines.adapters` imports — can load
without dragging in the engine-dependent runners and creating an import
cycle.
"""

from importlib import import_module
from typing import Any

#: Exported name -> defining submodule.
_EXPORTS = {
    "PROFILES": "cases",
    "VerificationCase": "cases",
    "profile_cases": "cases",
    "ENGINE_PAIRS": "differential",
    "VerificationReport": "differential",
    "run_case": "differential",
    "run_profile": "differential",
    "REGENERATE_HINT": "golden",
    "check_corpus": "golden",
    "corpus_path": "golden",
    "generate_corpus": "golden",
    "load_corpus": "golden",
    "write_corpus": "golden",
    "METAMORPHIC_RELATIONS": "metamorphic",
    "run_metamorphic": "metamorphic",
    "CheckResult": "tolerance",
    "Estimate": "tolerance",
    "binomial_half_width": "tolerance",
    "compare": "tolerance",
    "students_t_estimate": "tolerance",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

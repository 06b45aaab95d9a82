"""Differential verification: cross-engine oracles, metamorphic
properties, and a golden regression corpus.

The repo computes the paper's availability quantities along several
independent paths (closed forms, exact enumeration, static Monte-Carlo
and its variance-reduced variants, discrete-event simulation, parallel
fan-out, the sharded engine and its per-item reference) plus protocol-
and telemetry-level surfaces. This package turns that redundancy into an
executable oracle:

- :mod:`~repro.verification.witnesses` runs each backend on one
  :class:`~repro.verification.cases.VerificationCase` and reports
  comparable estimates; it also holds the bug injection.
- :mod:`~repro.verification.differential` crosses every applicable
  witness pair with confidence-interval-aware tolerances
  (:mod:`~repro.verification.tolerance`).
- :mod:`~repro.verification.metamorphic` checks identities the algebra
  must obey regardless of engine (monotonicity, read/write symmetry,
  access-mix extremes, relabeling invariance) and the paper's claims
  about the optimum (convergence, write floor, upper envelope).
- :mod:`~repro.verification.golden` locks reference results (paper-figure
  values and seeded engine outputs) in the repository and reports
  per-metric drift.

Entry point: ``python -m repro verify`` (exit 0 = all checks pass,
1 = divergence, 2 = configuration error).
"""

from repro.verification.cases import PROFILES, VerificationCase, profile_cases
from repro.verification.differential import (
    ENGINE_PAIRS,
    VerificationReport,
    run_case,
    run_profile,
)
from repro.verification.golden import (
    REGENERATE_HINT,
    check_corpus,
    corpus_path,
    generate_corpus,
    load_corpus,
    write_corpus,
)
from repro.verification.metamorphic import METAMORPHIC_RELATIONS, run_metamorphic
from repro.verification.tolerance import (
    CheckResult,
    Estimate,
    binomial_half_width,
    compare,
    students_t_estimate,
)

__all__ = [
    "PROFILES",
    "VerificationCase",
    "profile_cases",
    "ENGINE_PAIRS",
    "VerificationReport",
    "run_case",
    "run_profile",
    "REGENERATE_HINT",
    "check_corpus",
    "corpus_path",
    "generate_corpus",
    "load_corpus",
    "write_corpus",
    "METAMORPHIC_RELATIONS",
    "run_metamorphic",
    "CheckResult",
    "Estimate",
    "binomial_half_width",
    "compare",
    "students_t_estimate",
]

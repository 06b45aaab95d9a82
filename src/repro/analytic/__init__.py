"""Analytic component-size distributions (paper, section 4.2).

The optimal quorum assignment algorithm consumes, for each site ``i``, the
density ``f_i(v)`` — the probability that site ``i`` currently sits in a
component holding exactly ``v`` votes (with ``f_i(0)`` covering the site
being down). This package provides every way the paper obtains ``f_i``:

- closed forms for symmetric networks: :func:`ring_density`,
  :func:`complete_density` (via Gilbert's ``Rel(m, r)`` recursion), and
  :func:`bus_density` in both bus-architecture variants;
- an exact exponential-time enumeration oracle for small networks
  (:func:`enumerate_density`), used to validate everything else — the
  paper proves the general problem #P-complete, so this oracle is for
  tests, not production;
- a static Monte-Carlo estimator for arbitrary graphs
  (:func:`montecarlo_density`), the off-line counterpart of the on-line
  estimation performed inside the simulator.
"""

from repro.analytic.density import (
    density_matrix_mean,
    normalize_density,
    validate_density,
)
from repro.analytic.rel import rel
from repro.analytic.ring import ring_density
from repro.analytic.complete import complete_density
from repro.analytic.bus import bus_density
from repro.analytic.enumeration import enumerate_density, enumerate_density_matrix
from repro.analytic.montecarlo import montecarlo_density, montecarlo_density_matrix
from repro.analytic.markov import (
    JointMarkovChain,
    dynamic_voting_key,
    static_protocol_key,
    stationary_availability,
)

#: Families with a closed-form ``f_i(v)`` (paper, section 4.2).
CLOSED_FORM_FAMILIES = ("ring", "complete", "bus")


def closed_form_density(family: str, n_sites: int, p: float, r: float):
    """Dispatch to the section-4.2 closed form for ``family``.

    ``family`` is one of :data:`CLOSED_FORM_FAMILIES`. The bus family uses
    the ``sites_need_bus=False`` architecture (sites survive a bus outage
    as singletons), matching the star-through-a-zero-vote-hub encoding the
    enumeration oracle and the simulator use.

    Results are memoized in the cross-layer density cache
    (:mod:`repro.analytic.cache`), so sweeps, verification engines, and
    CLI paths that revisit the same ``(family, n, p, r)`` point pay for
    the recursion once.
    """
    from repro.analytic import cache as density_cache
    from repro.errors import DensityError

    if family == "ring":
        compute = lambda: ring_density(n_sites, p, r)  # noqa: E731
    elif family == "complete":
        compute = lambda: complete_density(n_sites, p, r)  # noqa: E731
    elif family == "bus":
        compute = lambda: bus_density(n_sites, p, r, sites_need_bus=False)  # noqa: E731
    else:
        raise DensityError(
            f"no closed form for family {family!r}; choose from {CLOSED_FORM_FAMILIES}"
        )
    key = density_cache.closed_form_key(family, n_sites, p, r)
    return density_cache.fetch("closed_form", key, compute)


__all__ = [
    "CLOSED_FORM_FAMILIES",
    "JointMarkovChain",
    "bus_density",
    "closed_form_density",
    "complete_density",
    "density_matrix_mean",
    "dynamic_voting_key",
    "enumerate_density",
    "enumerate_density_matrix",
    "montecarlo_density",
    "montecarlo_density_matrix",
    "normalize_density",
    "rel",
    "ring_density",
    "static_protocol_key",
    "stationary_availability",
    "validate_density",
]

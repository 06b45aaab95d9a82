"""Closed-form component-vote density for a single-bus network.

Paper, section 4.2. A bus network joins ``n`` sites through one shared
medium of reliability ``r``. Two architectures are distinguished:

``sites_need_bus=True``
    "no site can function when the bus is inoperative": a site can only be
    part of a live component when the bus is up, and the component then
    consists of all up sites, giving

        f_i(v) = C(n-1, v-1) r p^v (1-p)^{n-v}    for 1 <= v <= n

    with the remaining mass (bus down, or the site itself down) at v = 0.

``sites_need_bus=False``
    "bus failure does not necessitate site failure": a site that is up
    while the bus is down forms a singleton component of one vote, so

        f_i(1) = p (1-r)  +  C(n-1, 0) r p (1-p)^{n-1}
        f_i(v) = C(n-1, v-1) r p^v (1-p)^{n-v}    for 2 <= v <= n

    (The paper prints the v = 1 case as ``f_i(1) = p``; that is the
    marginal "site up and isolated-or-alone" mass only when every other
    site being reachable is folded in — we use the additive form above,
    which makes total mass exactly 1 and agrees with the paper when the
    bus-down and all-others-down terms are collected. The enumeration
    oracle in tests pins this interpretation.)

Both variants assume one vote per site; ``T = n``.
"""

from __future__ import annotations

import numpy as np

from repro.analytic.density import validate_density
from repro.errors import DensityError, TopologyError

__all__ = ["bus_density"]


def bus_density(
    n_sites: int,
    p: float,
    r: float,
    sites_need_bus: bool = True,
) -> np.ndarray:
    """The bus ``f_i(v)`` as an array of length ``n_sites + 1``.

    Parameters
    ----------
    n_sites:
        Number of real sites on the bus (the bus itself carries no votes).
    p:
        Site reliability.
    r:
        Bus reliability.
    sites_need_bus:
        Selects the architecture (see module docstring).
    """
    if n_sites < 1:
        raise TopologyError(f"a bus needs at least 1 site, got {n_sites}")
    for label, value in (("site reliability p", p), ("bus reliability r", r)):
        if not 0.0 <= value <= 1.0:
            raise DensityError(f"{label} must be in [0, 1], got {value}")

    from scipy.special import comb

    n = n_sites
    f = np.zeros(n + 1, dtype=np.float64)
    v = np.arange(1, n + 1)
    vf = v.astype(np.float64)
    shared = comb(n - 1, v - 1) * p**vf * (1.0 - p) ** (n - vf)

    if sites_need_bus:
        f[1:] = r * shared
        f[0] = 1.0 - float(f[1:].sum())  # site down, or bus down
    else:
        f[1:] = r * shared
        f[1] += p * (1.0 - r)  # bus down but the site is up: singleton
        f[0] = 1.0 - float(f[1:].sum())  # site down (bus state irrelevant)
    return validate_density(f, total_votes=n, tolerance=1e-9)

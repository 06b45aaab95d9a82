"""`repro.engines`: pluggable availability backends behind one registry.

Importing this package registers every built-in engine — see
:mod:`repro.engines.registry` for the lookup API and
:mod:`repro.engines.adapters` for the backends. ``repro engines`` on the
command line prints :func:`list_engines`.
"""

from repro.engines.registry import (
    KIND_DENSITY_MODEL,
    KIND_MODEL,
    KIND_SIMULATION,
    EngineSpec,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.engines.adapters import (
    KNOWN_BUGS,
    ModelEngine,
    OffByOneModel,
    SimulationEngineRun,
    closed_form_engine,
    enum_exact_order_engine,
    enumeration_engine,
    grant_mask_mismatch,
    importance_mc_engine,
    inject_bug_model,
    montecarlo_engine,
    online_density_model,
    register_builtin_engines,
    sharded_engine_run,
    sharded_reference_run,
    simulation_engine_run,
    stratified_mc_engine,
    with_injected_bug,
)

__all__ = [
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "list_engines",
    "KIND_MODEL",
    "KIND_SIMULATION",
    "KIND_DENSITY_MODEL",
    "ModelEngine",
    "SimulationEngineRun",
    "closed_form_engine",
    "enum_exact_order_engine",
    "enumeration_engine",
    "montecarlo_engine",
    "stratified_mc_engine",
    "importance_mc_engine",
    "simulation_engine_run",
    "sharded_engine_run",
    "sharded_reference_run",
    "online_density_model",
    "grant_mask_mismatch",
    "OffByOneModel",
    "KNOWN_BUGS",
    "inject_bug_model",
    "with_injected_bug",
    "register_builtin_engines",
]

register_builtin_engines(replace=True)

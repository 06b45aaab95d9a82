"""The engine registry: every availability backend behind one lookup.

An *engine* is anything that turns a parameter point into availability
evidence — a closed form, the exact enumerator, a Monte-Carlo estimator,
the discrete-event simulator, or the serving layer's online-density
model builder. Historically each consumer (sweeps, verification, the
CLI, the serving control loop) imported the constructor it wanted
directly; this module replaces that with a registry so backends are
pluggable and uniformly benchmarkable:

- :func:`register_engine` installs an :class:`EngineSpec` under a unique
  name (``replace=True`` lets tests swap in instrumented doubles).
- :func:`get_engine` resolves a name (optionally checking the expected
  ``kind``) with an error that lists the known names.
- :func:`list_engines` returns specs ordered cheapest-first, optionally
  filtered by kind — the ``repro engines`` subcommand prints exactly
  this.

Specs carry *capability flags* (``exact``, ``statistical``,
``variance-reduced``, ``rare-event``, ``bitwise-parallel``,
``bounded-states``, ``online``) and a human cost hint plus a relative
``cost_rank``, so dispatchers can select by property ("cheapest exact
engine that applies") instead of hard-coding names.

The built-in engines are registered by :mod:`repro.engines.adapters`
when :mod:`repro.engines` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.errors import VerificationError

__all__ = [
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "list_engines",
    "KIND_MODEL",
    "KIND_SIMULATION",
    "KIND_DENSITY_MODEL",
]

#: Engine kinds (the builder's calling convention).
#:
#: - ``model``: ``build(case, **opts) -> Optional[ModelEngine]`` — a
#:   Figure-1 availability model from a verification case; ``None`` when
#:   the engine does not apply (e.g. past the enumeration cap).
#: - ``simulation``: ``build(case, n_workers=..., with_telemetry=...)
#:   -> SimulationEngineRun`` — a simulated campaign reduced to
#:   comparable estimates.
#: - ``density-model``: ``build(matrix, read_weights, write_weights)
#:   -> AvailabilityModel`` — a model from an externally estimated
#:   density matrix (the serving control loop's path).
KIND_MODEL = "model"
KIND_SIMULATION = "simulation"
KIND_DENSITY_MODEL = "density-model"

_KINDS = (KIND_MODEL, KIND_SIMULATION, KIND_DENSITY_MODEL)


@dataclass(frozen=True)
class EngineSpec:
    """One registered availability engine."""

    name: str
    kind: str
    description: str
    #: Property flags dispatchers and the CLI select/filter on.
    capabilities: FrozenSet[str] = field(default_factory=frozenset)
    #: Human-readable cost summary for ``repro engines``.
    cost_hint: str = ""
    #: Relative cost ordering within a kind (lower = cheaper).
    cost_rank: int = 0
    #: The constructor; calling convention depends on ``kind``.
    builder: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise VerificationError(
                f"engine {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {_KINDS}"
            )
        if self.builder is None:
            raise VerificationError(f"engine {self.name!r} has no builder")

    def build(self, *args, **kwargs):
        """Invoke the engine's builder."""
        return self.builder(*args, **kwargs)

    def has(self, capability: str) -> bool:
        return capability in self.capabilities


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Install ``spec``; duplicate names are an error unless ``replace``."""
    if spec.name in _REGISTRY and not replace:
        raise VerificationError(
            f"engine {spec.name!r} is already registered "
            f"(kind {_REGISTRY[spec.name].kind}); pass replace=True to "
            "override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove an engine (tests installing doubles clean up with this)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str, kind: Optional[str] = None) -> EngineSpec:
    """Resolve ``name``; ``kind`` asserts the expected calling convention."""
    try:
        spec = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise VerificationError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None
    if kind is not None and spec.kind != kind:
        raise VerificationError(
            f"engine {name!r} has kind {spec.kind!r}, expected {kind!r}"
        )
    return spec


def list_engines(kind: Optional[str] = None,
                 capability: Optional[str] = None) -> Tuple[EngineSpec, ...]:
    """Registered specs, cheapest first, optionally filtered."""
    specs = [
        spec
        for spec in _REGISTRY.values()
        if (kind is None or spec.kind == kind)
        and (capability is None or spec.has(capability))
    ]
    specs.sort(key=lambda spec: (spec.kind, spec.cost_rank, spec.name))
    return tuple(specs)

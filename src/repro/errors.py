"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still letting programming errors (``TypeError`` and friends raised by
numpy or the standard library) propagate unchanged.

Fault-layer errors (:class:`FaultInjectionError`, :class:`InvariantViolation`,
:class:`BatchExecutionError`) additionally carry *structured context* — the
simulated time, a component snapshot, and the seed that reproduces the run —
via the :class:`ContextualError` mixin, so a chaos campaign can quarantine
and replay a failure instead of losing it in a formatted message string.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ReproError",
    "ContextualError",
    "TopologyError",
    "QuorumConstraintError",
    "VoteAssignmentError",
    "SimulationError",
    "ShardingError",
    "FanOutError",
    "ProtocolError",
    "DensityError",
    "OptimizationError",
    "ReliabilityError",
    "SerializabilityError",
    "VerificationError",
    "FaultInjectionError",
    "InvariantViolation",
    "BatchExecutionError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ContextualError(ReproError):
    """A :class:`ReproError` carrying structured, machine-readable context.

    ``sim_time`` is the simulated time at which the error surfaced,
    ``seed`` whatever seed reproduces the run, and ``snapshot`` an
    arbitrary JSON-compatible dict (typically component labels plus
    site/link up-masks). All are optional; the formatted message appends
    whatever is present so plain ``str(exc)`` stays informative.
    """

    def __init__(
        self,
        message: str,
        *,
        sim_time: Optional[float] = None,
        seed: Optional[int] = None,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sim_time = sim_time
        self.seed = seed
        self.snapshot = dict(snapshot) if snapshot else {}
        parts = [message]
        if sim_time is not None:
            parts.append(f"[t={sim_time:.4g}]")
        if seed is not None:
            parts.append(f"[seed={seed}]")
        super().__init__(" ".join(parts))
        self.message = message

    def context(self) -> Dict[str, Any]:
        """The structured context as one JSON-compatible dict."""
        return {
            "message": self.message,
            "sim_time": self.sim_time,
            "seed": self.seed,
            "snapshot": self.snapshot,
        }

    def _pickle_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments that reconstruct this error via ``__init__``.

        Subclasses adding required keyword-only parameters must extend
        this, or the error cannot cross a process boundary: the default
        ``BaseException.__reduce__`` replays only positional ``args``,
        which loses keyword-only fields and raises ``TypeError`` on
        unpickle for any that are required.
        """
        return {
            "sim_time": self.sim_time,
            "seed": self.seed,
            "snapshot": self.snapshot or None,
        }

    def __reduce__(self):
        # The cause is pickled too (the default exception reduce drops
        # it): quarantine reporting reads ``__cause__`` for the original
        # error type and message.
        return (
            _rebuild_contextual,
            (type(self), self.message, self._pickle_kwargs(), self.__cause__),
        )


def _rebuild_contextual(
    cls: type,
    message: str,
    kwargs: Dict[str, Any],
    cause: Optional[BaseException],
) -> "ContextualError":
    """Unpickle helper for :class:`ContextualError` (see ``__reduce__``)."""
    exc = cls(message, **kwargs)
    exc.__cause__ = cause
    return exc


class TopologyError(ReproError):
    """Raised for malformed network topologies (bad sites, links, votes)."""


class QuorumConstraintError(ReproError):
    """Raised when a quorum assignment violates the consistency constraints.

    The quorum consensus protocol requires ``q_r + q_w > T`` and
    ``q_w > T / 2`` (paper, section 2.1). Any assignment failing either
    condition could allow a stale read or two concurrent writes.
    """


class VoteAssignmentError(ReproError):
    """Raised for invalid vote assignments (negative votes, wrong length)."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is misconfigured."""


class ShardingError(SimulationError):
    """Raised when the sharded multi-item engine is misconfigured."""


class FanOutError(ReproError):
    """Raised when a process-pool fan-out loses a worker process.

    A task that *raises* arrives as its own exception; this one means a
    worker died (killed, out of memory, ``os._exit``) and the results of
    the fan-out are incomplete, so none are returned.
    """


class ProtocolError(ReproError):
    """Raised when a replica-control protocol is driven illegally.

    Examples: installing a quorum reassignment from a component that does
    not hold a write quorum under the old assignment, or asking a protocol
    to evaluate an operation it does not know about.
    """


class DensityError(ReproError):
    """Raised for invalid probability densities (negative mass, wrong size)."""


class OptimizationError(ReproError):
    """Raised when a quorum optimizer is given an empty or infeasible range."""


class ReliabilityError(DensityError, OptimizationError):
    """Raised for a site or link reliability that is not a probability.

    NaN, a value outside [0, 1] or a vector of the wrong length. Every
    density backend and the vote optimizer check their inputs through
    :func:`repro.analytic.density.reliability_vector`, so existing
    ``except DensityError`` and ``except OptimizationError`` sites keep
    catching it.
    """


class VerificationError(ReproError):
    """Raised when the differential-verification subsystem is misconfigured.

    Examples: an unknown verification profile or bug-injection name, a
    golden corpus file that is missing or structurally invalid, or a
    verification case whose parameters no engine can evaluate. Divergence
    between engines is *not* an error — it is reported as a failed check
    in the :class:`~repro.verification.differential.VerificationReport`.
    """


class SerializabilityError(ReproError):
    """Raised when the replicated database detects a consistency violation.

    This should never fire when a valid quorum assignment is in force; it
    exists so that tests can prove the protocol machinery actually enforces
    one-copy serializability rather than assuming it.
    """


class FaultInjectionError(ContextualError):
    """Raised when a fault schedule is malformed or cannot be applied.

    Examples: a scripted partition naming a site outside the topology, a
    flapping schedule with a non-positive period, or an event with a
    negative time or a non-topology kind.
    """


class InvariantViolation(ContextualError):
    """A broken safety invariant observed by the chaos monitor.

    During chaos runs the :class:`~repro.faults.monitor.InvariantMonitor`
    *records* these (with full event context) instead of raising them
    mid-batch; :meth:`~repro.faults.monitor.ViolationRecord.to_error`
    turns a record back into a raisable error. ``rule`` names the violated invariant
    (``"quorum-intersection"``, ``"write-write-intersection"``,
    ``"version-regression"``, ``"stale-assignment-grant"``,
    ``"concurrent-writes"``, ``"one-copy-serializability"``).
    """

    def __init__(self, message: str, *, rule: str = "unknown", **kwargs: Any) -> None:
        super().__init__(message, **kwargs)
        self.rule = rule

    def context(self) -> Dict[str, Any]:
        ctx = super().context()
        ctx["rule"] = self.rule
        return ctx

    def _pickle_kwargs(self) -> Dict[str, Any]:
        kwargs = super()._pickle_kwargs()
        kwargs["rule"] = self.rule
        return kwargs


class BatchExecutionError(ContextualError, SimulationError):
    """One simulated batch died mid-flight.

    Wraps whatever the protocol or accounting raised, annotated with the
    batch index, the seed that reproduces it, and the partial fault trace
    recorded up to the failure — everything the campaign runner needs to
    quarantine the batch for replay and keep the campaign going.
    Subclasses :class:`SimulationError` so existing ``except
    SimulationError`` call sites keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        batch_index: int,
        trace: Optional[Any] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(message, **kwargs)
        self.batch_index = batch_index
        self.trace = trace

    def context(self) -> Dict[str, Any]:
        ctx = super().context()
        ctx["batch_index"] = self.batch_index
        ctx["trace_events"] = None if self.trace is None else len(self.trace)
        return ctx

    def _pickle_kwargs(self) -> Dict[str, Any]:
        kwargs = super()._pickle_kwargs()
        kwargs["batch_index"] = self.batch_index
        kwargs["trace"] = self.trace
        return kwargs

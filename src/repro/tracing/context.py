"""Trace-context propagation: deterministic span identity across processes.

PR 3's process-pool fan-out made batches independent by construction,
which also severed the span tree at the process boundary: every worker's
:class:`~repro.telemetry.spans.SpanCollector` restarted its sequential
span ids at 1, so merged snapshots carried colliding ids and orphaned
roots. A :class:`TraceContext` repairs both:

- **Deterministic ids.** While a context is active on a collector, span
  ids are derived from ``(seed, scope, index, ordinal)`` by a keyed
  64-bit hash instead of the sequential counter. The ordinal is the
  span's creation rank *within the context*, and the sequencing of every
  traced layer is already a pure function of the configuration, so the
  id of every span — and therefore the whole exported tree — is bitwise
  identical for any ``--workers`` / ``--clients`` value.
- **Re-parenting.** A context carries the span id of the dispatching
  span in the parent process; worker-local root spans adopt it as their
  parent, so merged snapshots reconstruct one tree spanning the fan-out.

The batch loop (:class:`repro.simulation.parallel.BatchLoop`) opens one
root span under the run-scope context and runs every batch under its
batch-scope context, in-process or in a worker alike, so the serial run
and any parallel run produce the same tree digest
(:func:`repro.tracing.export.span_tree_digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SCOPE_RUN",
    "SCOPE_BATCH",
    "SCOPE_SERVE",
    "TraceContext",
]

#: Context scopes (part of the id-derivation key, so scopes never collide).
SCOPE_RUN = "run"
SCOPE_BATCH = "batch"
SCOPE_SERVE = "serve"


@dataclass(frozen=True)
class TraceContext:
    """One deterministic id namespace; picklable, so it crosses the pool.

    ``seed`` is the run's configuration seed (``None`` hashes as the
    literal string ``"None"`` — unseeded runs still get *stable* ids,
    they are just shared across unseeded runs). ``scope``/``index``
    locate the namespace (e.g. ``("batch", 3)``), and
    ``parent_span_id`` is the dispatching span in the launching process
    that context-root spans re-parent under.
    """

    seed: Optional[int]
    scope: str
    index: int
    parent_span_id: Optional[int] = None

    def span_id(self, ordinal: int) -> int:
        """Deterministic 63-bit id of the ``ordinal``-th span opened here.

        Derived ids are uniform over ``[1, 2^63)``, so they never collide
        with the small sequential ids a collector assigns outside any
        context, and collide with each other only with negligible
        (birthday-bound) probability.
        """
        key = f"{self.seed}/{self.scope}/{self.index}/{ordinal}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return (int.from_bytes(digest, "big") & ((1 << 63) - 1)) or 1

    def child(self, scope: str, index: int,
              parent_span_id: Optional[int]) -> "TraceContext":
        """A sub-namespace sharing this context's seed."""
        return TraceContext(self.seed, scope, index, parent_span_id)

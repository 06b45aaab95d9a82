"""Chaos fault injection: scripted faults, invariant monitoring, quarantine.

The stochastic failure model in :mod:`repro.simulation.processes` answers
"how available is this protocol on average?"; this package answers "does
the protocol stay *safe* when failures are adversarial?". It has three
parts:

- :mod:`repro.faults.schedule` — a fault schedule is data: a validated,
  time-sorted tuple of ``(time, kind, target)`` topology events, plus the
  four builders (partition, flap, cascade, correlated group) that the one
  scenario table, :func:`repro.serving.scenarios.serving_schedule`, is
  made of;
- :mod:`repro.faults.monitor` — an invariant monitor that re-checks
  quorum intersection, the QR installation/propagation rules, and
  one-copy serializability after every topology change, *recording*
  violations with full event context instead of aborting the run;
- :mod:`repro.faults.chaos` — the chaos campaign runner, which
  quarantines failed batches with their seed and fault trace.
"""

from repro.faults.chaos import ChaosReport, run_chaos_campaign, unchecked_assignment
from repro.faults.monitor import InvariantMonitor, ViolationRecord
from repro.faults.schedule import FaultSchedule, cascade, correlated, flap, partition

__all__ = [
    "FaultSchedule",
    "partition",
    "flap",
    "cascade",
    "correlated",
    "InvariantMonitor",
    "ViolationRecord",
    "ChaosReport",
    "run_chaos_campaign",
    "unchecked_assignment",
]

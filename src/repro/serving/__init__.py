"""Adaptive quorum serving: a chaos-surviving service in one sequencer.

``repro serve`` drives simulated client read/write streams against a
:class:`~repro.replication.database.ReplicatedDatabase`, estimates the
access densities ``f_i(v)`` online, and installs better quorum
assignments through the QR protocol while scripted faults tear the
network apart — staying correct (invariant-monitored end to end) and
live (retries, breakers, load shedding, graceful degradation).
"""

from repro.serving.breakers import BreakerBoard, BreakerState, CircuitBreaker
from repro.serving.config import ServeConfig
from repro.serving.report import (
    OUTCOME_NAMES,
    ReassignmentEvent,
    ServeReport,
    outcome_code,
)
from repro.serving.requests import RequestChunk, RequestStream
from repro.serving.scenarios import SERVE_SCENARIOS, serving_schedule
from repro.serving.service import AdaptiveQuorumService, run_serve

__all__ = [
    "AdaptiveQuorumService",
    "BreakerBoard",
    "BreakerState",
    "CircuitBreaker",
    "OUTCOME_NAMES",
    "ReassignmentEvent",
    "RequestChunk",
    "RequestStream",
    "SERVE_SCENARIOS",
    "ServeConfig",
    "ServeReport",
    "outcome_code",
    "run_serve",
    "serving_schedule",
]

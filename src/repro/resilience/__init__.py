"""Resilience subsystem: fault injection, deadlines, and degradation.

Four pillars (see ``docs/ROBUSTNESS.md``):

* :mod:`repro.resilience.faults` -- deterministic, seedable,
  context-manager-scoped fault injection behind hook points threaded
  through the cache, pipeline, both simulator engines and the service;
* :mod:`repro.resilience.deadline` -- cooperative wall-clock budgets
  for the allocator pipeline (the simulators use cycle watchdogs);
* :mod:`repro.resilience.guard` -- the unified degradation ladder and
  bounded transient retry;
* the independent verifier lives with the allocator it checks, in
  :mod:`repro.core.verify`, and the chaos harness that sweeps fault
  scenarios in :mod:`repro.harness.chaos`.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.faults import (
    FaultPlan,
    FaultRecord,
    FaultSpec,
    inject,
    suspended,
)
from repro.resilience.guard import (
    LADDER,
    Degradation,
    Rung,
    backoff_delays,
    degradations,
    record_degradation,
    retry_transient,
    watching,
)

__all__ = [
    "Deadline",
    "Degradation",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "LADDER",
    "Rung",
    "backoff_delays",
    "degradations",
    "inject",
    "record_degradation",
    "retry_transient",
    "suspended",
    "watching",
]

"""Observability: structured tracing, metrics, and profiling.

The subsystem is dependency-free and **zero-cost when disabled**: the
current emitter defaults to a :class:`~repro.obs.events.NullEmitter`
whose ``emit`` is a constant-time no-op and whose ``span`` hands back a
shared do-nothing context manager, so instrumented code paths pay one
context-variable read and one attribute check when nobody is listening.

Layers:

* :mod:`repro.obs.events` -- structured events and nested phase spans
  (wall-clock timed), captured by binding an :class:`Emitter`;
* :mod:`repro.obs.metrics` -- counters / gauges / histograms in a
  context-scoped registry with a JSON-ready ``snapshot()``;
* :mod:`repro.obs.export` -- JSON / JSONL writers, the combined
  ``run_snapshot`` document the CLI's ``--metrics`` flag produces, the
  ``BENCH_*.json`` benchmark-trajectory snapshots, and the standard
  exporters (Prometheus text exposition, Chrome trace-event JSON);
* :mod:`repro.obs.ledger` -- the append-only JSONL run ledger that
  accumulates benchmark measurements across runs (read by the
  ``repro bench trend`` regression sentinel);
* :mod:`repro.obs.profile` -- one-call wall-time + allocation-decision
  profiling harness behind ``repro profile``.

See ``docs/OBSERVABILITY.md`` for the event schema, metric names, and
the label conventions.
"""

from repro.obs import events, export, ledger, metrics, profile

__all__ = ["events", "export", "ledger", "metrics", "profile"]

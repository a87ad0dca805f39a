"""Execution-engine selection: reference and fast engines.

Two engines implement the machine model:

* ``"reference"`` -- :class:`~repro.sim.machine.Machine`, the semantics
  oracle.  Supports every feature: instruction tracing, timeline
  recording, and the paranoid register-safety checker.
* ``"fast"`` -- :class:`~repro.sim.fast.FastMachine`, the pre-decoded
  burst engine.  Stats-identical to the reference but records no
  traces/timelines and performs no paranoid checks.

``"auto"`` (the default) picks the fast engine whenever no
reference-only feature is in play: an explicit ``trace``/``timeline``
request, a :class:`RegisterAssignment` (paranoid mode), or an active
telemetry capture (which the reference engine turns into timeline
recording) all select the reference engine.

Explicitly asking for ``engine="fast"`` together with a reference-only
feature raises :class:`~repro.errors.EngineError`; when the *global
default* (see :func:`set_default_engine`, used by the CLI's
``--engine`` flag) names that engine the conflict instead falls back to
the reference engine with a :class:`RuntimeWarning` -- a harness-wide
preference should not explode the one allocated run inside a sweep.
Each distinct conflict warns **once per process** (the degradation
record and telemetry still fire per occurrence); a thousand-point sweep
does not print a thousand identical warnings.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Set, Tuple, Union

from repro.errors import EngineError
from repro.ir.program import Program
from repro.obs import events as obs
from repro.resilience import guard
from repro.sim.fast import FastMachine
from repro.sim.machine import Machine

#: Recognised engine names.
ENGINES = ("auto", "fast", "reference")

#: Any concrete machine type (all expose the same run interface).
AnyMachine = Union[Machine, FastMachine]

_default_engine = "auto"

#: Fallback-warning messages already issued this process (see module
#: docstring: warn once per distinct conflict, not once per create()).
_warned_fallbacks: Set[str] = set()


def get_default_engine() -> str:
    """The engine used when a call site passes ``engine=None``."""
    return _default_engine


def set_default_engine(name: str) -> str:
    """Set the process-wide default engine; returns the previous one."""
    global _default_engine
    _check_name(name)
    previous = _default_engine
    _default_engine = name
    return previous


def _reset_fallback_warnings() -> None:
    """Forget which fallback warnings were issued (test hook)."""
    _warned_fallbacks.clear()


def _check_name(name: str) -> None:
    if name not in ENGINES:
        raise EngineError(
            f"unknown engine {name!r}; expected one of {', '.join(ENGINES)}"
        )


def select_engine(
    engine: Optional[str] = None,
    *,
    trace: bool = False,
    timeline: Optional[bool] = None,
    assignment=None,
) -> str:
    """Resolve an engine request to a concrete engine name.

    ``engine=None`` consults the global default (non-strict: a
    conflicting ``"fast"`` default falls back with a once-per-process
    warning).  An explicit engine is strict and raises
    :class:`EngineError` on conflict, naming the flag that forced it.
    """
    strict = engine is not None
    name = engine if engine is not None else _default_engine
    _check_name(name)
    if name == "reference":
        return "reference"

    blockers = []
    if trace:
        blockers.append("instruction tracing (trace=True)")
    if timeline:
        blockers.append("timeline recording (timeline=True)")
    if assignment is not None:
        blockers.append("the paranoid safety checker (assignment=...)")

    if name == "auto":
        # An active telemetry capture means the reference engine would
        # auto-record its timeline; keep that data complete.
        if blockers or (timeline is None and obs.enabled()):
            return "reference"
        return "fast"

    # name == "fast"
    if blockers:
        message = (
            f"the {name} engine does not support "
            + ", ".join(blockers)
            + "; use engine='reference'"
        )
        if strict:
            raise EngineError(message)
        fallback_note = message + " -- falling back to the reference engine"
        if fallback_note not in _warned_fallbacks:
            _warned_fallbacks.add(fallback_note)
            warnings.warn(fallback_note, RuntimeWarning, stacklevel=3)
        guard.record_degradation(
            f"engine.{name}_to_reference", reason="; ".join(blockers)
        )
        return "reference"
    return name


def create_machine(
    programs: Sequence[Program],
    engine: Optional[str] = None,
    *,
    nreg: int = 128,
    mem_latency: int = 20,
    ctx_cost: int = 1,
    memory=None,
    assignment=None,
    measure_iterations: Optional[int] = None,
    latency_regions: Optional[Sequence[Tuple[int, int, int]]] = None,
    trace: bool = False,
    timeline: Optional[bool] = None,
) -> AnyMachine:
    """Build the machine the resolved engine calls for.

    The keyword surface matches :class:`~repro.sim.machine.Machine`, so
    callers can switch engines without touching anything else.
    """
    chosen = select_engine(
        engine, trace=trace, timeline=timeline, assignment=assignment
    )
    cls = FastMachine if chosen == "fast" else Machine
    return cls(
        programs,
        nreg=nreg,
        mem_latency=mem_latency,
        ctx_cost=ctx_cost,
        memory=memory,
        assignment=assignment,
        measure_iterations=measure_iterations,
        latency_regions=latency_regions,
        trace=trace,
        timeline=timeline,
    )

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

``engine=None`` means ``"auto"``.  Asking for ``engine="fast"``
together with a reference-only feature raises
:class:`~repro.errors.EngineError`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.errors import EngineError
from repro.ir.program import Program
from repro.obs import events as obs
from repro.sim.fast import FastMachine
from repro.sim.machine import Machine

#: Recognised engine names.
ENGINES = ("auto", "fast", "reference")

#: Any concrete machine type (all expose the same run interface).
AnyMachine = Union[Machine, FastMachine]


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

    ``engine=None`` means ``"auto"``.  ``"fast"`` raises
    :class:`EngineError` when a reference-only feature is requested.
    """
    name = engine if engine is not None else "auto"
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
        raise EngineError(
            f"the {name} engine does not support "
            + ", ".join(blockers)
            + "; use engine='reference'"
        )
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

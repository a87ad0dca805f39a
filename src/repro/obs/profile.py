"""One-call profiling harness over the allocator pipeline and simulator.

:func:`profile_programs` runs the full allocation (and, by default, the
allocated simulation) under a fresh event capture and metric registry,
then distills the telemetry into a :class:`ProfileReport`: wall time per
pipeline phase, allocator decision counts (greedy steps, probes,
recolors/splits), and the simulator's per-thread run/idle/switch cycle
accounting.  ``repro profile`` is a thin CLI shell around it.

The harness is intentionally *outside* the measured code: installing the
capture here means the pipeline's own instrumentation stays no-op in
normal runs and only lights up while a profile (or an explicit
``--metrics`` capture) is active.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import events, metrics
from repro.obs.export import SCHEMA_RUN, to_jsonable


@dataclass
class ProfileReport:
    """Distilled telemetry for one profiled allocation(+simulation)."""

    wall_s: float
    phases: Dict[str, float]
    event_counts: Dict[str, int]
    metrics: Dict[str, Any]
    inter_steps: List[Dict[str, Any]]
    sim: List[Dict[str, Any]]
    allocation: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = to_jsonable(self)
        out["schema"] = SCHEMA_RUN
        return out


def profile_programs(
    programs: Sequence[Any],
    nreg: int = 128,
    packets: int = 16,
    sim: bool = True,
    engine: Optional[str] = None,
) -> ProfileReport:
    """Profile one PU's allocation (and optionally its simulation).

    Args:
        programs: virtual-register programs, one per hardware thread.
        nreg: physical register budget.
        packets: packets per thread for the simulated run.
        sim: also run the allocated programs on the simulator.
        engine: execution engine for the simulated run (see
            :mod:`repro.sim.engine`).  The profiled run carries the
            paranoid safety checker and records its timeline into the
            capture, so the default ``None``/``"auto"`` resolves to the
            reference engine; an explicit ``"fast"`` raises
            :class:`~repro.errors.EngineError`.
    """
    from repro.core.pipeline import allocate_programs
    from repro.sim.run import run_threads

    start = time.perf_counter()
    with metrics.scoped() as reg, events.capture() as em:
        outcome = allocate_programs(programs, nreg=nreg)
        if sim:
            run_threads(
                outcome.programs,
                packets_per_thread=packets,
                nreg=nreg,
                assignment=outcome.assignment,
                engine=engine,
            )
    wall = time.perf_counter() - start
    allocation = {
        "nreg": nreg,
        "policy": "greedy",
        "total_registers": outcome.total_registers,
        "sgr": outcome.sgr,
        "total_moves": outcome.total_moves,
        "threads": [
            {"name": t.name, "pr": t.pr, "sr": t.sr, "moves": t.move_cost}
            for t in outcome.inter.threads
        ],
    }
    return ProfileReport(
        wall_s=wall,
        phases=em.phase_timings(),
        event_counts=em.counts(),
        metrics=reg.snapshot(),
        inter_steps=[e.fields for e in em.events_named("inter.step")],
        sim=[e.fields for e in em.events_named("sim.accounting")],
        allocation=allocation,
    )


def render_report(report: ProfileReport) -> str:
    """Human-readable profile: phase table, decisions, cycle accounting."""
    from repro.harness.report import text_table

    blocks: List[str] = []

    total = sum(
        d for p, d in report.phases.items() if "/" not in p
    ) or report.wall_s
    phase_rows = [
        (path, 1000.0 * dur, 100.0 * dur / total if total else 0.0)
        for path, dur in sorted(report.phases.items())
    ]
    blocks.append(
        "Phase timings\n"
        + text_table(["phase", "ms", "% of total"], phase_rows)
    )

    counters = report.metrics.get("counters", {})
    decision_rows = [(name, value) for name, value in sorted(counters.items())]
    if decision_rows:
        blocks.append(
            "Allocator decisions\n"
            + text_table(["counter", "count"], decision_rows)
        )

    if report.inter_steps:
        kinds: Dict[str, int] = {}
        total_delta = 0
        for step in report.inter_steps:
            kinds[step.get("kind", "?")] = kinds.get(step.get("kind", "?"), 0) + 1
            total_delta += step.get("delta", 0)
        blocks.append(
            f"Inter-thread greedy loop: {len(report.inter_steps)} steps "
            f"({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))}), "
            f"total move-cost delta {total_delta}"
        )

    for acct in report.sim:
        rows = [
            (
                t.get("tid"),
                t.get("name", "?"),
                t.get("run", 0),
                t.get("switch", 0),
            )
            for t in acct.get("threads", [])
        ]
        blocks.append(
            f"Simulator cycle accounting: {acct.get('cycles', 0)} cycles, "
            f"idle {acct.get('idle', 0)}\n"
            + text_table(["tid", "thread", "run", "switch"], rows)
        )

    blocks.append(f"total wall time: {1000.0 * report.wall_s:.1f} ms")
    return "\n\n".join(blocks)

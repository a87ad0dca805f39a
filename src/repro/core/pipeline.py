"""One-call public API: allocate a PU's threads end to end.

:func:`allocate_programs` validates and analyses every thread program,
runs the inter-thread allocator, lays out physical registers and rewrites
each program.  The returned :class:`AllocationOutcome` carries everything
downstream consumers need: rewritten programs for the simulator, the
register layout for the paranoid safety checker, and per-thread statistics
for the experiment harnesses.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.analysis import ThreadAnalysis
from repro.core.assign import RegisterAssignment, assign_physical
from repro.core.cache import get_cache
from repro.core.inter import InterThreadResult, allocate_threads
from repro.core.rewrite import rewrite_program
from repro.errors import TransientError
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import deadline as dl
from repro.resilience import faults, guard
from repro.resilience.deadline import Deadline


@contextlib.contextmanager
def _phase(em, name: str, **fields) -> Iterator[None]:
    """An ``em.span`` that also feeds the per-phase timing histogram.

    Phase durations are sub-millisecond for small PUs, so the histogram
    uses the fractional :data:`~repro.obs.metrics.TIMING_BUCKETS` rather
    than the integer-oriented default bounds.
    """
    if not em.enabled:
        yield
        return
    start = time.perf_counter()
    try:
        with em.span(name, **fields):
            yield
    finally:
        obs_metrics.registry().histogram(
            "alloc.phase_seconds",
            bounds=obs_metrics.TIMING_BUCKETS,
            phase=name,
        ).observe(time.perf_counter() - start)


@dataclass
class AllocationOutcome:
    """Everything produced by the full allocation pipeline."""

    source_programs: List[Program]
    programs: List[Program]
    analyses: List[ThreadAnalysis]
    inter: InterThreadResult
    assignment: RegisterAssignment

    @property
    def sgr(self) -> int:
        return self.inter.sgr

    @property
    def total_registers(self) -> int:
        return self.inter.total_registers

    @property
    def total_moves(self) -> int:
        return self.inter.total_moves

    def summary(self) -> str:
        lines = [
            f"Nreg={self.inter.nreg}  total used="
            f"{self.total_registers}  SGR={self.sgr}  moves={self.total_moves}"
        ]
        for t, m in zip(self.inter.threads, self.assignment.maps):
            lines.append(
                f"  {t.name}: PR={t.pr} SR={t.sr} "
                f"private=[{m.private_base}, {m.private_base + m.pr}) "
                f"moves={t.move_cost}"
            )
        return "\n".join(lines)


def _analyze_all(cache, programs: Sequence[Program]):
    """One analyze attempt; carries the ``pipeline.analyze`` fault site.

    Returns each program's cache entry, so the bounds phase reads the
    same entries without a second lookup.
    """
    spec = faults.fire("pipeline.analyze", threads=len(programs))
    if spec is not None:
        raise TransientError("injected transient analysis failure")
    return [cache.entry(p) for p in programs]


def allocate_programs(
    programs: Sequence[Program],
    nreg: int,
    check_init: bool = True,
    policy: str = "greedy",
    deadline: Optional[Deadline] = None,
) -> AllocationOutcome:
    """Allocate registers for one PU running ``programs`` on its threads.

    Args:
        programs: one virtual-register program per hardware thread.
        nreg: the PU's physical register count.
        check_init: also verify no register is read uninitialised.
        policy: inter-thread reduction policy (``greedy`` or the
            ``round_robin`` ablation).
        deadline: optional cooperative wall-clock budget; checked at
            every phase boundary, raising
            :class:`~repro.errors.DeadlineExceeded` once spent.

    Analysis and bounds are memoized per program content through
    :func:`repro.core.cache.get_cache`, one lookup per program;
    repeated allocations of the same thread programs (sweeps over
    ``nreg``) skip straight to the inter-thread phase.  Transient analysis
    failures are retried a bounded number of times
    (:func:`repro.resilience.guard.retry_transient`) before surfacing.
    """
    cache = get_cache()
    em = obs.get_emitter()
    with _phase(
        em, "allocate", threads=len(programs), nreg=nreg, policy=policy
    ):
        dl.check(deadline, "validate")
        with _phase(em, "validate"):
            for program in programs:
                validate_program(program, check_init=check_init)
        dl.check(deadline, "analyze")
        with _phase(em, "analyze"):
            entries = guard.retry_transient(
                lambda: _analyze_all(cache, programs),
                label="pipeline.analyze",
            )
        analyses = [e.analysis for e in entries]
        dl.check(deadline, "bounds")
        with _phase(em, "bounds"):
            bounds = [e.bounds() for e in entries]
        dl.check(deadline, "inter")
        with _phase(em, "inter"):
            inter = allocate_threads(analyses, nreg, policy=policy, bounds=bounds)
        dl.check(deadline, "assign")
        with _phase(em, "assign"):
            assignment = assign_physical(inter)
        dl.check(deadline, "rewrite")
        with _phase(em, "rewrite"):
            rewritten = [
                rewrite_program(t.analysis, t.context, m)
                for t, m in zip(inter.threads, assignment.maps)
            ]
            for program in rewritten:
                validate_program(program, check_init=False)
    return AllocationOutcome(
        source_programs=list(programs),
        programs=rewritten,
        analyses=analyses,
        inter=inter,
        assignment=assignment,
    )


def allocate_programs_sweep(
    programs: Sequence[Program], budgets: Sequence[int]
) -> Dict[int, AllocationOutcome]:
    """Allocate one PU's threads at EVERY budget in one shared descent.

    The Figure-8 reduction trajectory is budget-independent (the budget
    only stops it), so instead of one fresh :func:`allocate_programs`
    per budget this validates and analyses the threads once, runs ONE
    :class:`~repro.core.inter.SharedDescent` (memoized per thread mix in
    :func:`repro.core.cache.get_cache`, so repeated sweeps replay in
    O(1)), and materializes a full :class:`AllocationOutcome` per
    distinct budget.  Every outcome is byte-identical to what
    ``allocate_programs(programs, nreg=b)`` returns at that budget --
    same PR/SR splits, move costs, register maps, and rewritten-program
    fingerprints.

    Returns a dict keyed by budget, in the (deduplicated) order given.
    The whole call runs under one ``alloc.descent`` span with an
    ``alloc.descent_budget`` event per materialized budget.

    Raises:
        AllocationError: some budget is infeasible even at the threads'
            lower bounds -- the error (message and ``requirement``
            attribute) is identical to the fresh-run error at that
            budget, and the largest budgets raise first.
    """
    cache = get_cache()
    em = obs.get_emitter()
    wanted = list(dict.fromkeys(budgets))
    outcomes: Dict[int, AllocationOutcome] = {}
    with _phase(
        em,
        "alloc.descent",
        threads=len(programs),
        budgets=sorted(wanted, reverse=True),
        policy="greedy",
    ):
        with _phase(em, "validate"):
            for program in programs:
                validate_program(program)
        with _phase(em, "analyze"):
            entries = guard.retry_transient(
                lambda: _analyze_all(cache, programs),
                label="pipeline.analyze",
            )
        analyses = [e.analysis for e in entries]
        with _phase(em, "bounds"):
            for entry in entries:
                entry.bounds()
        inters: Dict[int, InterThreadResult] = {}
        with _phase(em, "descent"):
            descent = cache.descent(programs)
            for nreg in sorted(wanted, reverse=True):
                inter = descent.result(nreg)
                inters[nreg] = inter
                if em.enabled:
                    em.emit(
                        "alloc.descent_budget",
                        nreg=nreg,
                        total_registers=inter.total_registers,
                        total_moves=inter.total_moves,
                        steps=descent.steps,
                    )
        for nreg in wanted:
            inter = inters[nreg]
            with _phase(em, "assign", nreg=nreg):
                assignment = assign_physical(inter)
            with _phase(em, "rewrite", nreg=nreg):
                rewritten = [
                    rewrite_program(t.analysis, t.context, m)
                    for t, m in zip(inter.threads, assignment.maps)
                ]
                for program in rewritten:
                    validate_program(program, check_init=False)
            outcomes[nreg] = AllocationOutcome(
                source_programs=list(programs),
                programs=rewritten,
                analyses=analyses,
                inter=inter,
                assignment=assignment,
            )
    return outcomes

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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.analysis import ThreadAnalysis
from repro.core.assign import RegisterAssignment, assign_physical
from repro.core.cache import get_cache
from repro.core.inter import InterThreadResult, allocate_threads
from repro.core.rewrite import rewrite_program
from repro.errors import AllocationError, TransientError
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
    """One analyze attempt; carries the ``pipeline.analyze`` fault site."""
    spec = faults.fire("pipeline.analyze", threads=len(programs))
    if spec is not None:
        raise TransientError("injected transient analysis failure")
    return [cache.analyze(p) for p in programs]


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
    :func:`repro.core.cache.get_cache`; repeated allocations of the
    same thread programs (sweeps over ``nreg``, spill-fallback retries)
    skip straight to the inter-thread phase.  Transient analysis
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
            analyses = guard.retry_transient(
                lambda: _analyze_all(cache, programs),
                label="pipeline.analyze",
            )
        dl.check(deadline, "bounds")
        with _phase(em, "bounds"):
            bounds = [cache.bounds(p) for p in programs]
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
    programs: Sequence[Program],
    budgets: Sequence[int],
    check_init: bool = True,
    policy: str = "greedy",
    deadline: Optional[Deadline] = None,
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
    ``alloc.descent_budget`` event per materialized budget; the deadline
    is checked at every phase boundary and between budgets.

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
        policy=policy,
    ):
        dl.check(deadline, "validate")
        with _phase(em, "validate"):
            for program in programs:
                validate_program(program, check_init=check_init)
        dl.check(deadline, "analyze")
        with _phase(em, "analyze"):
            analyses = guard.retry_transient(
                lambda: _analyze_all(cache, programs),
                label="pipeline.analyze",
            )
        dl.check(deadline, "bounds")
        with _phase(em, "bounds"):
            for program in programs:
                cache.bounds(program)
        dl.check(deadline, "descent")
        inters: Dict[int, InterThreadResult] = {}
        with _phase(em, "descent"):
            descent = cache.descent(programs, policy=policy)
            for nreg in sorted(wanted, reverse=True):
                dl.check(deadline, f"descent@{nreg}")
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
            dl.check(deadline, f"assign@{nreg}")
            with _phase(em, "assign", nreg=nreg):
                assignment = assign_physical(inter)
            dl.check(deadline, f"rewrite@{nreg}")
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


@dataclass
class HybridOutcome:
    """Result of :func:`allocate_with_spill_fallback`.

    ``spilled_per_thread`` maps thread index -> number of values the
    pre-spill pass pushed to memory (empty when no spilling was needed,
    in which case the result equals a plain :func:`allocate_programs`).
    """

    outcome: AllocationOutcome
    spilled_per_thread: Dict[int, int] = field(default_factory=dict)

    @property
    def total_spilled(self) -> int:
        return sum(self.spilled_per_thread.values())


def allocate_with_spill_fallback(
    programs: Sequence[Program],
    nreg: int,
    check_init: bool = True,
    max_spill_rounds: int = 16,
    deadline: Optional[Deadline] = None,
) -> HybridOutcome:
    """Cross-thread allocation with graceful degradation.

    When even the lower bounds of the threads exceed ``nreg`` (the plain
    pipeline raises :class:`AllocationError`), the hungriest thread is
    pre-spilled -- Chaitin-style spill code lowers its register pressure
    while the program stays in virtual registers -- and allocation is
    retried: the ``alloc.greedy_to_spill`` rung of the degradation
    ladder.  Spills go to per-thread scratch areas; each spill access
    costs a memory trip, so this is strictly a fallback, but every input
    that a 3-registers-per-instruction machine can run at all eventually
    fits.  Error messages name the *original* thread program (spill
    rounds rewrite ``current[idx]``) and the failing round.
    """
    from repro.baseline.chaitin import (
        DEFAULT_SPILL_BASE,
        spill_until_colorable,
    )
    from repro.baseline.single_thread import SPILL_AREA_STRIDE

    cache = get_cache()
    current = [p.copy() for p in programs]
    original_names = [p.name for p in programs]
    spilled: Dict[int, int] = {}
    for round_no in range(1, max_spill_rounds + 1):
        dl.check(deadline, f"spill-round-{round_no}")
        try:
            outcome = allocate_programs(
                current,
                nreg,
                check_init=check_init,
                deadline=deadline,
            )
            return HybridOutcome(outcome=outcome, spilled_per_thread=spilled)
        except AllocationError:
            pass
        # The failed allocate_programs call above already populated the
        # cache, so only threads rewritten by a previous spill round pay
        # for re-analysis here.
        bounds = [cache.bounds(p) for p in current]
        # Relieve the thread with the largest private-register floor.
        idx = max(range(len(current)), key=lambda i: bounds[i].min_pr)
        target = max(bounds[idx].min_r - 2, 3)
        if target >= bounds[idx].min_r:
            raise AllocationError(
                f"cannot reduce {original_names[idx]} below "
                f"{bounds[idx].min_r} registers "
                f"(spill round {round_no}/{max_spill_rounds})"
            )
        guard.record_degradation(
            "alloc.greedy_to_spill",
            reason=f"nreg={nreg} infeasible; pre-spilling "
            f"{original_names[idx]} toward {target} registers",
            thread=idx,
            round=round_no,
        )
        virtual, _, stats = spill_until_colorable(
            current[idx],
            target,
            spill_base=DEFAULT_SPILL_BASE + idx * SPILL_AREA_STRIDE,
        )
        # Check progress against THIS round's spill stats before folding
        # them into the running total -- reading ``spilled[idx]`` after
        # the update would see the previous rounds' work and miss a
        # round that spilled nothing.
        if not stats.spilled:
            raise AllocationError(
                f"spill fallback made no progress on {original_names[idx]} "
                f"in round {round_no}/{max_spill_rounds}"
            )
        current[idx] = virtual
        spilled[idx] = spilled.get(idx, 0) + len(set(stats.spilled))
    raise AllocationError(
        f"spill fallback did not converge in {max_spill_rounds} rounds "
        f"(threads spilled so far: "
        f"{ {original_names[i]: n for i, n in sorted(spilled.items())} })"
    )

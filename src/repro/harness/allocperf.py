"""Allocation-pipeline throughput: cold vs warm-cache vs descent.

The sweep grid covers every benchmark kernel at ``nthd`` identical
threads under three register budgets derived from its own bounds --
the zero-reduction ceiling (``nthd*MaxPR + MaxSR``), the feasibility
floor (``nthd*MinPR + MinSRmax``), approached from above, and their
midpoint -- so the measured work spans "no reduction needed" through
"heavy Figure-8/10 splitting".

Two passes over the same grid, both through the public
:func:`~repro.core.pipeline.allocate_programs` entry point:

* **cold** -- a fresh, empty analysis cache; every point re-analyzes.
  This is exactly what the pipeline did before :mod:`repro.core.cache`
  existed, so cold vs warm is the caching win, not an artifact of the
  harness.
* **warm** -- the same cache again, now populated: only the
  budget-dependent phases (inter/assign/rewrite) still run.

A third, **descent**, section measures the shared-descent win on the
per-kernel *multi-budget query workload*: a :data:`LADDER_RUNGS`-rung
budget ladder spanning the kernel's bounds floor to its zero-reduction
ceiling (widened downward so kernels whose floor equals their ceiling
still exercise infeasibility probing -- the same query mix
``_reachable`` and a budget search issue), each rung resolved to the
smallest satisfiable budget and allocated once per distinct result.
The baseline runs it the pre-descent way -- allocate-until-success
probing, then a fresh :func:`~repro.core.pipeline.allocate_programs`
per budget -- and the descent side answers the identical queries from
ONE :class:`~repro.core.inter.SharedDescent` per kernel via
:func:`~repro.core.pipeline.allocate_programs_sweep`, plus a replay
pass on the warm trajectory.  Both sides run on the warm analysis
cache, so ``descent_speedup`` isolates the descent itself
(docs/PERFORMANCE.md, "Shared-descent budget sweeps").

Every pass is timed as the best of two runs, and every run records the
full allocation summary of every point (PR/SR vectors, move costs, SGR,
totals, and the fingerprints of the rewritten programs); ``identical``
is the byte-for-byte JSON equality of the cold and warm runs,
``descent_identical`` that of the descent section's six runs with the
cold points, and any mismatch invalidates the speedups.
``repro bench alloc`` or ``pytest benchmarks/bench_alloc.py
--benchmark-only -s`` regenerates ``benchmarks/out/BENCH_alloc.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import AnalysisCache, CacheStats, get_cache, scoped
from repro.core.pipeline import allocate_programs, allocate_programs_sweep
from repro.errors import AllocationError
from repro.harness.report import text_table
from repro.suite.registry import BENCHMARKS, load

#: A sweep point: (kernel name, register budget, threads per PU).
Point = Tuple[str, int, int]

#: Rungs of the per-kernel budget ladder the descent section queries.
LADDER_RUNGS = 6


def _budget_probes(name: str, nthd: int) -> Tuple[int, List[int]]:
    """The kernel's zero-reduction ceiling and the raw (unprobed)
    mid / near-floor budget requests the grid derives from its bounds."""
    b = get_cache().bounds(load(name))
    floor = nthd * b.min_pr + (b.min_r - b.min_pr)
    ceiling = nthd * b.max_pr + (b.max_r - b.max_pr)
    near_floor = min(floor + max(1, (ceiling - floor) // 4), ceiling)
    mid = (floor + ceiling) // 2
    return ceiling, [mid, near_floor]


def _reachable(name: str, nreg: int, nthd: int, ceiling: int) -> int:
    """Smallest budget >= ``nreg`` the greedy loop actually satisfies.

    The per-thread bounds floor (``nthd*MinPR + MinSRmax``) is a lower
    bound on any allocation, but the Figure-8 loop is greedy and can
    bottom out a few registers above it.  The reduction trajectory is
    budget-independent, so this is a single read-off of the kernel's
    shared descent (memoized in the analysis cache) -- where it used to
    re-run the full pipeline per probe, allocating until success.
    """
    if nreg >= ceiling:
        return ceiling
    descent = get_cache().descent([load(name) for _ in range(nthd)])
    return min(descent.reachable(nreg), ceiling)


def _reachable_probing(name: str, nreg: int, nthd: int, ceiling: int) -> int:
    """The pre-descent feasibility probe: allocate at rising budgets
    until success, each failure's typed ``requirement`` guiding the next
    try.  Kept as the baseline the descent section measures against."""
    while nreg < ceiling:
        try:
            allocate_programs([load(name) for _ in range(nthd)], nreg=nreg)
            return nreg
        except AllocationError as exc:
            nreg = (
                exc.requirement if exc.requirement is not None else nreg + 1
            )
    return ceiling


def build_grid(
    names: Optional[Sequence[str]] = None, nthd: int = 4
) -> List[Point]:
    """The suite x budget grid, each budget derived from the kernel's
    own bounds and probed for greedy feasibility."""
    grid: List[Point] = []
    for name in names or list(BENCHMARKS):
        ceiling, probes = _budget_probes(name, nthd)
        budgets = {ceiling}
        for nreg in probes:
            budgets.add(_reachable(name, nreg, nthd, ceiling))
        for nreg in sorted(budgets, reverse=True):
            grid.append((name, nreg, nthd))
    return grid


def _summarize(name: str, nreg: int, nthd: int, out: Any) -> Dict[str, Any]:
    """Distill one allocation outcome into the full decision summary."""
    return {
        "name": name,
        "nreg": nreg,
        "nthd": nthd,
        "pr": [t.pr for t in out.inter.threads],
        "sr": [t.sr for t in out.inter.threads],
        "moves": [t.move_cost for t in out.inter.threads],
        "sgr": out.sgr,
        "total_registers": out.total_registers,
        "total_moves": out.total_moves,
        "programs": [p.fingerprint() for p in out.programs],
    }


def _alloc_summary(point: Point) -> Dict[str, Any]:
    """Allocate one grid point and distill the full decision summary."""
    name, nreg, nthd = point
    programs = [load(name) for _ in range(nthd)]
    return _summarize(name, nreg, nthd, allocate_programs(programs, nreg=nreg))


def _budget_ladder(name: str, nthd: int) -> Tuple[int, List[int]]:
    """The kernel's ceiling and its :data:`LADDER_RUNGS`-rung budget
    ladder, evenly spaced from ``min(floor, ceiling - LADDER_RUNGS + 1)``
    up to the ceiling.

    Spanning floor to ceiling covers "no reduction needed" through
    "bottomed out"; the downward widening keeps the ladder multi-budget
    for kernels whose floor *equals* their ceiling (identical threads at
    tight bounds), where every sub-ceiling rung is an infeasibility
    probe -- still a real query, and the expensive kind for the
    pre-descent baseline.
    """
    b = get_cache().bounds(load(name))
    floor = nthd * b.min_pr + (b.min_r - b.min_pr)
    ceiling = nthd * b.max_pr + (b.max_r - b.max_pr)
    lo = max(1, min(floor, ceiling - LADDER_RUNGS + 1))
    span = ceiling - lo
    rungs = sorted(
        {lo + (k * span) // (LADDER_RUNGS - 1) for k in range(LADDER_RUNGS)},
        reverse=True,
    )
    return ceiling, rungs


def _grid_per_budget(name: str, nthd: int) -> List[Dict[str, Any]]:
    """One kernel's budget-ladder queries the pre-descent way: resolve
    each rung by allocating until success, then run one fresh
    :func:`allocate_programs` per distinct reachable budget."""
    ceiling, rungs = _budget_ladder(name, nthd)
    budgets = set()
    for nreg in rungs:
        budgets.add(_reachable_probing(name, nreg, nthd, ceiling))
    return [
        _alloc_summary((name, nreg, nthd))
        for nreg in sorted(budgets, reverse=True)
    ]


def _grid_descent(name: str, nthd: int) -> List[Dict[str, Any]]:
    """The same ladder answered from one shared descent: the programs
    are loaded once, reachability is a trajectory read-off, and
    :func:`allocate_programs_sweep` materializes every distinct budget."""
    ceiling, rungs = _budget_ladder(name, nthd)
    programs = [load(name) for _ in range(nthd)]
    descent = get_cache().descent(programs)
    budgets = {
        ceiling if nreg >= ceiling else min(descent.reachable(nreg), ceiling)
        for nreg in rungs
    }
    ordered = sorted(budgets, reverse=True)
    outcomes = allocate_programs_sweep(programs, ordered)
    return [
        _summarize(name, nreg, nthd, outcomes[nreg]) for nreg in ordered
    ]


@dataclass
class AllocBenchReport:
    """Everything ``BENCH_alloc.json`` carries."""

    points: List[Dict[str, Any]]
    cold_s: float
    warm_s: float
    cpu_count: int
    cache: Dict[str, int]
    identical: bool
    kernels: List[str] = field(default_factory=list)
    per_budget_s: float = 0.0
    descent_s: float = 0.0
    descent_replay_s: float = 0.0
    descent_identical: bool = False

    @property
    def warm_speedup(self) -> float:
        return self.cold_s / self.warm_s if self.warm_s else 0.0

    @property
    def descent_speedup(self) -> float:
        return (
            self.per_budget_s / self.descent_s if self.descent_s else 0.0
        )

    @property
    def descent_replay_speedup(self) -> float:
        return (
            self.per_budget_s / self.descent_replay_s
            if self.descent_replay_s
            else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernels": self.kernels,
            "grid_points": len(self.points),
            "cold_s": self.cold_s,
            "warm_s": self.warm_s,
            "warm_speedup": self.warm_speedup,
            "cpu_count": self.cpu_count,
            "cache": self.cache,
            "identical": self.identical,
            "per_budget_s": self.per_budget_s,
            "descent_s": self.descent_s,
            "descent_replay_s": self.descent_replay_s,
            "descent_speedup": self.descent_speedup,
            "descent_replay_speedup": self.descent_replay_speedup,
            "descent_identical": self.descent_identical,
            "points": self.points,
        }


def run_alloc_bench(
    names: Optional[Sequence[str]] = None,
    nthd: int = 4,
) -> AllocBenchReport:
    """Measure the passes over the grid (see the module docstring)."""
    names = list(names or BENCHMARKS)

    def best_of_two(run, *args, reset=lambda: None):
        # Both runs' summaries and the faster run's seconds: host noise
        # easily swings a sub-second pass by 20%, enough to flip a gate.
        runs, best = [], float("inf")
        for _ in range(2):
            reset()
            start = time.perf_counter()
            runs.append(run(*args))
            best = min(best, time.perf_counter() - start)
        return runs, best

    with scoped(AnalysisCache(capacity=256)) as cache:
        grid = build_grid(names, nthd=nthd)

        def cold_cache() -> None:
            # Building the grid probed bounds; the cold pass must not
            # see that.  The stats cover the last cold run onwards.
            cache.clear()
            cache.stats = CacheStats()

        def sweep() -> List[Dict[str, Any]]:
            return [_alloc_summary(p) for p in grid]

        def ladders(grid_fn) -> List[Dict[str, Any]]:
            return [s for n in names for s in grid_fn(n, nthd)]

        cold_runs, cold_s = best_of_two(sweep, reset=cold_cache)
        warm_runs, warm_s = best_of_two(sweep)
        # Descent section: the per-kernel multi-budget query workload,
        # old way vs one shared descent per kernel.  Both sides run on
        # the warm analysis cache, isolating the descent win; each
        # descent run starts from cold trajectories, and the replay
        # runs read the warm ones the last descent run left.
        per_budget, per_budget_s = best_of_two(ladders, _grid_per_budget)
        descended, descent_s = best_of_two(
            ladders, _grid_descent, reset=cache.clear_descents
        )
        replayed, descent_replay_s = best_of_two(ladders, _grid_descent)
        stats = cache.stats.to_dict()

    cold = cold_runs[-1]
    cold_json = json.dumps(cold, sort_keys=True)

    def agree(runs: List[List[Dict[str, Any]]]) -> bool:
        return all(json.dumps(r, sort_keys=True) == cold_json for r in runs)

    identical = agree(cold_runs + warm_runs)
    descent_identical = agree(per_budget + descended + replayed)
    return AllocBenchReport(
        points=cold,
        cold_s=cold_s,
        warm_s=warm_s,
        cpu_count=os.cpu_count() or 1,
        cache=stats,
        identical=identical,
        kernels=names,
        per_budget_s=per_budget_s,
        descent_s=descent_s,
        descent_replay_s=descent_replay_s,
        descent_identical=descent_identical,
    )


def render_alloc(report: AllocBenchReport) -> str:
    headers = ["kernel", "Nreg", "used", "SGR", "moves"]
    rows = [
        (
            p["name"], p["nreg"], p["total_registers"], p["sgr"],
            p["total_moves"],
        )
        for p in report.points
    ]
    out = (
        f"Allocation pipeline throughput "
        f"({len(report.points)} grid points, {report.cpu_count} CPUs)\n"
    )
    out += text_table(headers, rows)
    out += (
        f"\ncold {report.cold_s:.3f}s"
        f"  warm {report.warm_s:.3f}s ({report.warm_speedup:.2f}x)"
        f"\ndescent: per-budget {report.per_budget_s:.3f}s"
        f"  shared {report.descent_s:.3f}s "
        f"({report.descent_speedup:.2f}x)"
        f"  replay {report.descent_replay_s:.3f}s "
        f"({report.descent_replay_speedup:.2f}x)"
        f"\ncache: {report.cache}"
        f"\nidentical summaries across passes: {report.identical}"
        f"\nidentical summaries across descent passes: "
        f"{report.descent_identical}"
    )
    return out

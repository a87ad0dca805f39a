"""Allocation-pipeline throughput: cold vs warm-cache vs descent.

The sweep grid covers every benchmark kernel at :data:`NTHD` identical
threads under three register budgets derived from its own bounds --
the zero-reduction ceiling (``NTHD*MaxPR + MaxSR``), the feasibility
floor (``NTHD*MinPR + MinSRmax``), approached from above, and their
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

Every pass is timed by :func:`~repro.harness.report.measure`, and every
run records the full allocation summary of every point (PR/SR vectors,
move costs, SGR, totals, and the fingerprints of the rewritten
programs); ``identical`` is the byte-for-byte JSON equality of the cold
and warm runs, ``descent_identical`` that of the descent section's runs
with the cold points, and any mismatch invalidates the speedups.
``repro bench alloc`` or ``pytest benchmarks/bench_alloc.py
--benchmark-only -s`` regenerates ``benchmarks/out/BENCH_alloc.json``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import AnalysisCache, CacheStats, get_cache, scoped
from repro.core.pipeline import allocate_programs, allocate_programs_sweep
from repro.errors import AllocationError
from repro.harness.report import measure, ratio, text_table
from repro.suite.registry import BENCHMARKS, load

#: A sweep point: (kernel name, register budget, threads per PU).
Point = Tuple[str, int, int]

#: Identical threads per PU at every grid point and ladder rung.
NTHD = 4

#: Rungs of the per-kernel budget ladder the descent section queries.
LADDER_RUNGS = 6


def _budget_probes(name: str) -> Tuple[int, List[int]]:
    """The kernel's zero-reduction ceiling and the raw (unprobed)
    mid / near-floor budget requests the grid derives from its bounds."""
    b = get_cache().bounds(load(name))
    floor = NTHD * b.min_pr + (b.min_r - b.min_pr)
    ceiling = NTHD * b.max_pr + (b.max_r - b.max_pr)
    near_floor = min(floor + max(1, (ceiling - floor) // 4), ceiling)
    mid = (floor + ceiling) // 2
    return ceiling, [mid, near_floor]


def _reachable(name: str, nreg: int, ceiling: int) -> int:
    """Smallest budget >= ``nreg`` the greedy loop actually satisfies.

    The per-thread bounds floor (``NTHD*MinPR + MinSRmax``) is a lower
    bound on any allocation, but the Figure-8 loop is greedy and can
    bottom out a few registers above it.  The reduction trajectory is
    budget-independent, so this is a single read-off of the kernel's
    shared descent (memoized in the analysis cache) -- where it used to
    re-run the full pipeline per probe, allocating until success.
    """
    if nreg >= ceiling:
        return ceiling
    descent = get_cache().descent([load(name) for _ in range(NTHD)])
    return min(descent.reachable(nreg), ceiling)


def _reachable_probing(name: str, nreg: int, ceiling: int) -> int:
    """The pre-descent feasibility probe: allocate at rising budgets
    until success, each failure's typed ``requirement`` guiding the next
    try.  Kept as the baseline the descent section measures against."""
    while nreg < ceiling:
        try:
            allocate_programs([load(name) for _ in range(NTHD)], nreg=nreg)
            return nreg
        except AllocationError as exc:
            nreg = (
                exc.requirement if exc.requirement is not None else nreg + 1
            )
    return ceiling


def build_grid(names: Optional[Sequence[str]] = None) -> List[Point]:
    """The suite x budget grid, each budget derived from the kernel's
    own bounds and probed for greedy feasibility."""
    grid: List[Point] = []
    for name in names or list(BENCHMARKS):
        ceiling, probes = _budget_probes(name)
        budgets = {ceiling}
        for nreg in probes:
            budgets.add(_reachable(name, nreg, ceiling))
        for nreg in sorted(budgets, reverse=True):
            grid.append((name, nreg, NTHD))
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


def _budget_ladder(name: str) -> Tuple[int, List[int]]:
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
    floor = NTHD * b.min_pr + (b.min_r - b.min_pr)
    ceiling = NTHD * b.max_pr + (b.max_r - b.max_pr)
    lo = max(1, min(floor, ceiling - LADDER_RUNGS + 1))
    span = ceiling - lo
    rungs = sorted(
        {lo + (k * span) // (LADDER_RUNGS - 1) for k in range(LADDER_RUNGS)},
        reverse=True,
    )
    return ceiling, rungs


def _grid_per_budget(name: str) -> List[Dict[str, Any]]:
    """One kernel's budget-ladder queries the pre-descent way: resolve
    each rung by allocating until success, then run one fresh
    :func:`allocate_programs` per distinct reachable budget."""
    ceiling, rungs = _budget_ladder(name)
    budgets = set()
    for nreg in rungs:
        budgets.add(_reachable_probing(name, nreg, ceiling))
    return [
        _alloc_summary((name, nreg, NTHD))
        for nreg in sorted(budgets, reverse=True)
    ]


def _grid_descent(name: str) -> List[Dict[str, Any]]:
    """The same ladder answered from one shared descent: the programs
    are loaded once, reachability is a trajectory read-off, and
    :func:`allocate_programs_sweep` materializes every distinct budget."""
    ceiling, rungs = _budget_ladder(name)
    programs = [load(name) for _ in range(NTHD)]
    descent = get_cache().descent(programs)
    budgets = {
        ceiling if nreg >= ceiling else min(descent.reachable(nreg), ceiling)
        for nreg in rungs
    }
    ordered = sorted(budgets, reverse=True)
    outcomes = allocate_programs_sweep(programs, ordered)
    return [
        _summarize(name, nreg, NTHD, outcomes[nreg]) for nreg in ordered
    ]


def run_alloc_bench(names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Measure the passes over the grid (see the module docstring);
    returns the ``BENCH_alloc.json`` payload."""
    names = list(names or BENCHMARKS)
    with scoped(AnalysisCache(capacity=256)) as cache:
        grid = build_grid(names)

        def cold_cache() -> None:
            # Building the grid probed bounds; the cold pass must not
            # see that.  The stats cover the last cold run onwards.
            cache.clear()
            cache.stats = CacheStats()

        def sweep() -> List[Dict[str, Any]]:
            return [_alloc_summary(p) for p in grid]

        def ladders(grid_fn):
            return lambda: [s for n in names for s in grid_fn(n)]

        cold_s, cold_runs = measure(sweep, setup=cold_cache)
        warm_s, warm_runs = measure(sweep)
        # Descent section: the per-kernel multi-budget query workload,
        # old way vs one shared descent per kernel.  Both sides run on
        # the warm analysis cache, isolating the descent win; each
        # descent run starts from cold trajectories, and the replay
        # runs read the warm ones the last descent run left.
        per_budget_s, per_budget = measure(ladders(_grid_per_budget))
        descent_s, descended = measure(
            ladders(_grid_descent), setup=cache.clear_descents
        )
        replay_s, replayed = measure(ladders(_grid_descent))
        stats = cache.stats.to_dict()

    cold = cold_runs[-1]
    cold_json = json.dumps(cold, sort_keys=True)

    def agree(runs: List[List[Dict[str, Any]]]) -> bool:
        return all(json.dumps(r, sort_keys=True) == cold_json for r in runs)

    return {
        "kernels": names,
        "grid_points": len(cold),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": ratio(cold_s, warm_s),
        "cpu_count": os.cpu_count() or 1,
        "cache": stats,
        "identical": agree(cold_runs + warm_runs),
        "per_budget_s": per_budget_s,
        "descent_s": descent_s,
        "descent_replay_s": replay_s,
        "descent_speedup": ratio(per_budget_s, descent_s),
        "descent_replay_speedup": ratio(per_budget_s, replay_s),
        "descent_identical": agree(per_budget + descended + replayed),
        "points": cold,
    }


def render_alloc(data: Dict[str, Any]) -> str:
    headers = ["kernel", "Nreg", "used", "SGR", "moves"]
    rows = [
        (
            p["name"], p["nreg"], p["total_registers"], p["sgr"],
            p["total_moves"],
        )
        for p in data["points"]
    ]
    out = (
        f"Allocation pipeline throughput "
        f"({data['grid_points']} grid points, {data['cpu_count']} CPUs)\n"
    )
    out += text_table(headers, rows)
    out += (
        f"\ncold {data['cold_s']:.3f}s"
        f"  warm {data['warm_s']:.3f}s ({data['warm_speedup']:.2f}x)"
        f"\ndescent: per-budget {data['per_budget_s']:.3f}s"
        f"  shared {data['descent_s']:.3f}s "
        f"({data['descent_speedup']:.2f}x)"
        f"  replay {data['descent_replay_s']:.3f}s "
        f"({data['descent_replay_speedup']:.2f}x)"
        f"\ncache: {data['cache']}"
        f"\nidentical summaries across passes: {data['identical']}"
        f"\nidentical summaries across descent passes: "
        f"{data['descent_identical']}"
    )
    return out

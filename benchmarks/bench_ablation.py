"""Ablation benches for the design choices DESIGN.md calls out.

1. **Register-budget sweep** -- squeeze a mixed PU from a generous file
   down toward the lower bounds, showing how the allocator trades moves
   for registers (the mechanism behind the paper's "slight slowdown of
   non-critical threads").
2. **Cost-probing vs round-robin** -- the greedy Figure-8 loop probes the
   move cost of every reduction; the ablation reduces blindly.  Comparing
   total inserted moves shows what the probing buys.

Run with::

    pytest benchmarks/bench_ablation.py --benchmark-only -s
"""

from benchmarks._util import publish
from repro.core.cache import get_cache
from repro.core.pipeline import allocate_programs
from repro.harness.report import text_table
from repro.sim.run import outputs_match, run_reference, run_threads
from repro.suite.registry import load

MIX = ("frag", "drr", "url", "ipchains")


def _floor(programs):
    bounds = [get_cache().bounds(p) for p in programs]
    return sum(b.min_pr for b in bounds) + max(
        b.min_r - b.min_pr for b in bounds
    )


def _sweep_point(nreg):
    """One budget point: allocate the mix, verify outputs, report the row."""
    programs = [load(n) for n in MIX]
    out = allocate_programs([load(n) for n in MIX], nreg=nreg)
    ref = run_reference(programs, packets_per_thread=8)
    got = run_threads(
        out.programs,
        packets_per_thread=8,
        nreg=max(nreg, 8),
        assignment=out.assignment,
    )
    assert outputs_match(ref, got)
    return (
        nreg,
        out.total_registers,
        out.sgr,
        out.total_moves,
        " ".join(str(t.pr) for t in out.inter.threads),
    )


def sweep_budget():
    floor = _floor([load(n) for n in MIX])
    generous = 128
    budgets = [
        nreg
        for nreg in sorted({generous, 40, 36, 34, 32, floor}, reverse=True)
        if nreg >= floor
    ]
    rows = [_sweep_point(nreg) for nreg in budgets]
    return floor, rows


def test_budget_sweep(benchmark):
    floor, rows = benchmark.pedantic(sweep_budget, rounds=1, iterations=1)
    # Moves must be monotone non-decreasing as the budget shrinks.
    moves = [r[3] for r in rows]
    assert moves == sorted(moves)
    assert moves[0] == 0
    assert moves[-1] > 0  # the floor requires splitting
    table = text_table(
        ["Nreg", "used", "SGR", "moves", "PR per thread"], rows
    )
    publish(
        "ablation_budget_sweep",
        f"Budget sweep over {'+'.join(MIX)} (floor={floor})\n" + table,
        data={
            "mix": list(MIX),
            "floor": floor,
            "rows": [
                {
                    "nreg": nreg,
                    "used": used,
                    "sgr": sgr,
                    "moves": moves,
                    "pr_per_thread": [int(x) for x in prs.split()],
                }
                for nreg, used, sgr, moves, prs in rows
            ],
        },
    )


def compare_policies():
    floor = _floor([load(n) for n in MIX])
    nreg = floor  # the tightest feasible budget: every reduction is forced
    greedy = allocate_programs([load(n) for n in MIX], nreg=nreg)
    blind = allocate_programs(
        [load(n) for n in MIX], nreg=nreg, policy="round_robin"
    )
    return nreg, greedy.total_moves, blind.total_moves


def test_policy_ablation(benchmark):
    nreg, greedy_moves, blind_moves = benchmark.pedantic(
        compare_policies, rounds=1, iterations=1
    )
    # The cost-probing greedy must never be worse than blind reduction.
    assert greedy_moves <= blind_moves
    publish(
        "ablation_policy",
        text_table(
            ["Nreg", "greedy moves", "round-robin moves"],
            [(nreg, greedy_moves, blind_moves)],
        ),
        data={
            "mix": list(MIX),
            "nreg": nreg,
            "greedy_moves": greedy_moves,
            "round_robin_moves": blind_moves,
        },
    )

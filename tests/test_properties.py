"""Property-based tests (hypothesis) over randomly generated programs.

A small generator builds random-but-valid npir programs (structured
control flow, every register defined before use, terminating loops).  The
properties cover the pillars everything else rests on:

* liveness matches a brute-force path-based oracle on straight-line code;
* interference relations are symmetric and irreflexive;
* colorings produced by every heuristic are conflict-free;
* bounds are ordered (MinPR <= MaxPR, MinR <= MaxR, ...);
* the full allocation pipeline preserves observable semantics and
  respects the paranoid safety checker, at generous *and* minimal
  register budgets.
"""

from __future__ import annotations

from typing import List

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.analysis import analyze_thread
from repro.errors import SimulationError
from repro.core.bounds import estimate_bounds
from repro.core.pipeline import allocate_programs
from repro.cfg.liveness import co_live_pairs, compute_liveness
from repro.igraph.coloring import (
    dsatur_color,
    min_color,
    simplify_color,
    validate_coloring,
)
from repro.igraph.graph import UndirectedGraph
from repro.ir.parser import parse_program
from repro.ir.validate import validate_program
from repro.sim.run import outputs_match, run_reference, run_threads

REG_NAMES = ["a", "b", "c", "d", "e"]

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def straightline_program(draw):
    """A loop-free program where every use follows a def."""
    n = draw(st.integers(min_value=3, max_value=14))
    defined: List[str] = []
    lines: List[str] = []
    for i in range(n):
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice <= 1 or not defined:
            reg = draw(st.sampled_from(REG_NAMES))
            lines.append(f"movi %{reg}, {draw(st.integers(0, 255))}")
            if reg not in defined:
                defined.append(reg)
        elif choice == 2 and len(defined) >= 2:
            d = draw(st.sampled_from(REG_NAMES))
            a = draw(st.sampled_from(defined))
            b = draw(st.sampled_from(defined))
            op = draw(st.sampled_from(["add", "sub", "xor", "and", "or"]))
            lines.append(f"{op} %{d}, %{a}, %{b}")
            if d not in defined:
                defined.append(d)
        elif choice == 3:
            lines.append("ctx")
        elif choice == 4:
            a = draw(st.sampled_from(defined))
            b = draw(st.sampled_from(defined))
            lines.append(f"store %{a}, [%{b} + {draw(st.integers(0, 7))}]")
        else:
            d = draw(st.sampled_from(REG_NAMES))
            a = draw(st.sampled_from(defined))
            lines.append(f"load %{d}, [%{a}]")
            if d not in defined:
                defined.append(d)
    # Guarantee something observable.
    if defined:
        lines.append(f"store %{defined[0]}, [%{defined[0]} + 1]")
    lines.append("halt")
    return "\n".join(lines)


@st.composite
def branching_program(draw):
    """A diamond+loop program, all registers defined on all paths."""
    init = [
        f"movi %{r}, {draw(st.integers(1, 9))}" for r in REG_NAMES[:4]
    ]
    body_a = draw(straightline_body(REG_NAMES[:4]))
    body_b = draw(straightline_body(REG_NAMES[:4]))
    loops = draw(st.integers(min_value=1, max_value=3))
    text = "\n".join(
        init
        + [f"movi %n, 0", "loop:"]
        + [f"beqi %a, {draw(st.integers(0, 3))}, alt"]
        + body_a
        + ["br join", "alt:"]
        + body_b
        + [
            "join:",
            "addi %n, %n, 1",
            f"blti %n, {loops}, loop",
            "store %a, [%b + 2]",
            "halt",
        ]
    )
    return text


@st.composite
def straightline_body(draw, regs):
    k = draw(st.integers(min_value=1, max_value=6))
    out = []
    for _ in range(k):
        c = draw(st.integers(0, 4))
        if c == 0:
            out.append("ctx")
        elif c == 1:
            a = draw(st.sampled_from(regs))
            b = draw(st.sampled_from(regs))
            out.append(f"store %{a}, [%{b} + {draw(st.integers(0, 3))}]")
        else:
            d = draw(st.sampled_from(regs))
            a = draw(st.sampled_from(regs))
            b = draw(st.sampled_from(regs))
            op = draw(st.sampled_from(["add", "xor", "or", "and"]))
            out.append(f"{op} %{d}, %{a}, %{b}")
    return out


def reference_or_assume(programs):
    """Reference-run ``programs``, skipping examples whose *source*
    program already faults (e.g. a generated ``store`` whose computed
    address falls outside memory).  The semantics properties compare a
    transformation against the original -- a faulting original tells us
    nothing about the transformation."""
    try:
        return run_reference(programs)
    except SimulationError:
        assume(False)


def brute_force_live_in(program):
    """Oracle for straight-line code: walk backwards."""
    n = len(program.instrs)
    live = set()
    live_in = [None] * n
    for i in range(n - 1, -1, -1):
        instr = program.instrs[i]
        live -= set(instr.defs)
        live |= set(instr.uses)
        live_in[i] = frozenset(live)
    return live_in


@SETTINGS
@given(straightline_program())
def test_liveness_matches_bruteforce_on_straightline(text):
    program = parse_program(text, "gen")
    if any(program.successors(i) != (i + 1,) for i in range(len(program) - 1)):
        return  # only straight-line oracles here
    lv = compute_liveness(program)
    oracle = brute_force_live_in(program)
    for i in range(len(program.instrs)):
        assert lv.live_in[i] == oracle[i]


@SETTINGS
@given(straightline_program())
def test_interference_symmetric_irreflexive(text):
    program = parse_program(text, "gen")
    pairs = co_live_pairs(compute_liveness(program))
    for a, b in pairs:
        assert a != b


@SETTINGS
@given(branching_program())
def test_bounds_ordering(text):
    program = parse_program(text, "gen")
    validate_program(program)
    b = estimate_bounds(analyze_thread(program))
    assert 0 <= b.min_pr <= b.max_pr <= b.max_r
    assert b.min_pr <= b.min_r <= b.max_r


@SETTINGS
@given(branching_program())
def test_estimation_coloring_valid(text):
    program = parse_program(text, "gen")
    an = analyze_thread(program)
    b = estimate_bounds(an)
    validate_coloring(an.graphs.gig, b.coloring)
    for reg in an.graphs.boundary:
        assert b.coloring[reg] < b.max_pr


@SETTINGS
@given(branching_program())
def test_pipeline_preserves_semantics_generous(text):
    program = parse_program(text, "gen")
    validate_program(program)
    out = allocate_programs([program], nreg=64)
    ref = reference_or_assume([program])
    got = run_threads([out.programs[0]], assignment=out.assignment)
    assert outputs_match(ref, got)


@SETTINGS
@given(branching_program())
def test_pipeline_preserves_semantics_minimal(text):
    program = parse_program(text, "gen")
    validate_program(program)
    b = estimate_bounds(analyze_thread(program))
    nreg = b.min_r
    out = allocate_programs([program], nreg=nreg)
    assert out.total_registers <= nreg
    ref = reference_or_assume([program])
    got = run_threads(
        [out.programs[0]], nreg=nreg, assignment=out.assignment
    )
    assert outputs_match(ref, got)


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    g = UndirectedGraph()
    for i in range(n):
        g.add_node(f"n{i}")
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                g.add_edge(f"n{i}", f"n{j}")
    return g


@SETTINGS
@given(random_graph())
def test_colorings_always_valid(g):
    for colorer in (dsatur_color, simplify_color, min_color):
        validate_coloring(g, colorer(g))


@SETTINGS
@given(random_graph())
def test_coloring_at_most_degree_plus_one(g):
    c = dsatur_color(g)
    if len(g):
        max_deg = max(g.degree(n) for n in g.nodes())
        assert len(set(c.values())) <= max_deg + 1

"""Differential tests: dense bitset analysis kernels vs the reference.

The dense implementation (:mod:`repro.core.dense`) promises *bit
identity*, not just semantic equivalence: every ``ThreadAnalysis``
field -- iteration orders included -- the renamed program, the bounds,
and the final allocations must match the reference set-based
construction exactly.  These tests compare the two implementations
field by field over every suite kernel, over randomly generated
programs (reusing the generators of ``tests/test_properties.py``), for
both coloring heuristics, for whole-pipeline allocations, and at the
allocator-query level (``conflict_profile`` / ``conflicts_any`` vs the
pointwise reference probes).  The Figure-7 merge on the interference
masks is compared with its set-based twin over the suite, the
``conftest`` fixtures and both generated-program strategies.  The
reference side is always called by name: ``analyze_thread_reference``,
``compute_liveness_reference``, ``dsatur_color_reference``,
``simplify_color_reference`` and ``merge_region_colorings_reference``.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cfg.liveness import compute_liveness, compute_liveness_reference
from repro.core import bounds as bounds_mod
from repro.core import cache as cache_mod
from repro.core.analysis import (
    analyze_thread,
    analyze_thread_reference,
    true_conflict,
)
from repro.core.bounds import estimate_bounds
from repro.core.cache import scoped
from repro.core.context import initial_context
from repro.core.dense import mask_of_slots
from repro.core.pipeline import allocate_programs
from repro.harness.allocperf import build_grid
from repro.igraph import coloring
from repro.igraph.graph import UndirectedGraph, bit_indices
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.suite.registry import BENCHMARKS, load
from tests.conftest import FIG3_T1, FIG3_T2, MINI_KERNEL, STRAIGHT
from tests.test_igraph_merge_edges import assert_merges_identical


def _no_mask_merge(graphs):
    raise AssertionError("the mask merge ran in the reference arm")


@contextlib.contextmanager
def reference_kernels():
    """Run the allocation pipeline on the set-based kernels.

    The analysis cache's ``analyze_thread`` and both colorings are
    swapped for their ``*_reference`` twins around a fresh cache, so no
    dense-built analysis from an earlier test can be reused.  Bounds
    must then take ``merge_region_colorings_reference``: the mask merge
    fails the test if it runs.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_mod, "analyze_thread", analyze_thread_reference)
        patch.setattr(
            coloring, "dsatur_color", coloring.dsatur_color_reference
        )
        patch.setattr(
            coloring, "simplify_color", coloring.simplify_color_reference
        )
        patch.setattr(bounds_mod, "merge_region_colorings", _no_mask_merge)
        with scoped() as cache:
            yield cache


def test_repro_analysis_env_is_ignored():
    # The analysis switch is gone: a leftover REPRO_ANALYSIS=reference
    # in the environment must not change which kernels run.
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, REPRO_ANALYSIS="reference", PYTHONPATH=str(src))
    code = (
        "from repro.core.analysis import analyze_thread\n"
        "from repro.suite.registry import load\n"
        "print(analyze_thread(load('crc')).dense is not None)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "True"


def test_mask_of_slots():
    assert mask_of_slots([]) == 0
    assert mask_of_slots([0, 2, 5]) == 0b100101


# ---------------------------------------------------------------------------
# The conflict-mask formulas against the shared predicate


def test_mask_formulas_match_true_conflict():
    """Exhaustive check of the dense exclusion formulas.

    For every membership combination of two occupants ``a``/``b`` in a
    slot's def and dying sets, the mask branch the dense builders use
    (a def excludes dying-not-def; a dying use excludes defs; anyone
    else conflicts with all) must agree with :func:`true_conflict`.
    """
    a, b = VirtualReg("a"), VirtualReg("b")
    abit, bbit = 1, 2
    om = abit | bbit
    for a_def in (False, True):
        for a_dying in (False, True):
            for b_def in (False, True):
                for b_dying in (False, True):
                    defs = frozenset(
                        x for x, m in ((a, a_def), (b, b_def)) if m
                    )
                    dying = frozenset(
                        x for x, m in ((a, a_dying), (b, b_dying)) if m
                    )
                    dm = (abit if a_def else 0) | (bbit if b_def else 0)
                    dym = (abit if a_dying else 0) | (bbit if b_dying else 0)
                    if not (dm and dym):
                        conf = om  # clique fast path
                    elif dm & abit:
                        conf = om & ~(dym & ~dm)
                    elif dym & abit:
                        conf = om & ~dm
                    else:
                        conf = om
                    conf &= ~abit
                    assert bool(conf & bbit) == true_conflict(
                        a, b, defs, dying
                    ), (defs, dying)


# ---------------------------------------------------------------------------
# Field-by-field differential over the suite


def both_analyses(program):
    return analyze_thread_reference(program), analyze_thread(program)


def assert_colorings_identical(graphs):
    """Both heuristics against their set-based twins on every graph of
    an analysis, insertion order included."""
    for graph in [graphs.gig, graphs.big, *graphs.iigs.values()]:
        for dense, reference in [
            (coloring.dsatur_color, coloring.dsatur_color_reference),
            (coloring.simplify_color, coloring.simplify_color_reference),
        ]:
            assert list(dense(graph).items()) == list(
                reference(graph).items()
            )


def assert_analyses_identical(ra, da):
    # The renamed program (web renaming runs inside analyze_thread).
    assert ra.program.instrs == da.program.instrs
    assert ra.program.labels == da.program.labels
    # Liveness, exactly.
    assert ra.liveness.live_in == da.liveness.live_in
    assert ra.liveness.live_out == da.liveness.live_out
    # NSR classification.
    assert ra.nsr.boundary == da.nsr.boundary
    assert ra.nsr.internal == da.nsr.internal
    assert ra.nsr.nsr_of == da.nsr.nsr_of
    # Graphs: same node sets and adjacency, GIG/BIG/IIGs.
    for rg, dg in [
        (ra.graphs.gig, da.graphs.gig),
        (ra.graphs.big, da.graphs.big),
    ]:
        assert rg._adj == dg._adj
        assert rg.nodes() == dg.nodes()
        assert rg.edges() == dg.edges()
    assert set(ra.graphs.iigs) == set(da.graphs.iigs)
    for rid in ra.graphs.iigs:
        assert ra.graphs.iigs[rid]._adj == da.graphs.iigs[rid]._adj
    # The slot/conflict model, orders included (tuple equality is
    # order-sensitive; dict equality is not, which is fine -- lookups
    # never depend on dict order).
    assert ra.slots == da.slots
    assert ra.flow_edges == da.flow_edges
    assert ra.occupants == da.occupants
    assert ra.live_across == da.live_across
    assert ra.csb_slots_of == da.csb_slots_of
    assert ra.defs_at == da.defs_at
    assert ra.dying_at == da.dying_at
    assert ra.conflicts_at == da.conflicts_at
    # Derived indexes built lazily from the above.
    assert ra.conflict_pairs() == da.conflict_pairs()
    assert ra.conflict_neighbors() == da.conflict_neighbors()
    for an in (ra, da):
        assert neighbor_pairs(an) == pair_set(an)


def neighbor_pairs(an):
    """The neighbour relation as ordered range pairs."""
    rank, masks = an.conflict_neighbors()
    regs = sorted(rank, key=rank.get)
    return {
        (a, regs[i]) for a in regs for i in bit_indices(masks[rank[a]])
    }


def pair_set(an):
    """``conflict_pairs()`` as ordered range pairs, both directions."""
    return {p for a, b in an.conflict_pairs() for p in ((a, b), (b, a))}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_suite_kernel_analyses_identical(name):
    ra, da = both_analyses(load(name))
    assert da.dense is not None and ra.dense is None
    assert_analyses_identical(ra, da)
    assert_colorings_identical(da.graphs)
    assert_merges_identical(da.graphs, ra.graphs)


@pytest.mark.parametrize(
    "text",
    [STRAIGHT, FIG3_T1, FIG3_T2, MINI_KERNEL],
    ids=["straight", "fig3_t1", "fig3_t2", "mini_kernel"],
)
def test_fixture_merges_identical(text):
    ra, da = both_analyses(parse_program(text, "fixture"))
    assert_merges_identical(da.graphs, ra.graphs)


#: Kernels whose ``allocperf.build_grid`` points (4 threads, each kernel's
#: own ceiling budget) are allocated whole on both implementations.
GRID_KERNELS = ("crc", "md5", "url")


@pytest.mark.parametrize(
    "name, nthd",
    [("frag", 2), ("crc", 2), ("fir2dim", 2)]
    + [(name, 4) for name in GRID_KERNELS],
    ids=["frag", "crc", "fir2dim"] + [f"grid-{n}" for n in GRID_KERNELS],
)
def test_bounds_and_allocation_identical(name, nthd):
    program = load(name)

    def allocate_all(budgets):
        return [
            allocate_programs([program] * nthd, nreg=nreg) for nreg in budgets
        ]

    with scoped() as cache:
        if nthd == 2:
            budgets = [64]
        else:
            budgets = [nreg for _, nreg, _ in build_grid([name])]
        db = cache.bounds(program)
        douts = allocate_all(budgets)
    assert all(a.dense is not None for o in douts for a in o.analyses)
    with reference_kernels() as cache:
        rb = cache.bounds(program)
        routs = allocate_all(budgets)
    # Every analysis in the reference arm came from the set-based
    # kernels, so the comparison below cannot be dense against dense;
    # without interference masks, its bounds took the reference merge.
    assert all(
        a.dense is None and a.graphs.masks is None
        for o in routs
        for a in o.analyses
    )
    assert list(rb.coloring.items()) == list(db.coloring.items())
    assert (rb.min_pr, rb.max_pr, rb.min_r, rb.max_r) == (
        db.min_pr,
        db.max_pr,
        db.min_r,
        db.max_r,
    )
    for rout, dout in zip(routs, douts):
        assert rout.summary() == dout.summary()
        for rp, dp in zip(rout.programs, dout.programs):
            assert format_program(rp) == format_program(dp)


# ---------------------------------------------------------------------------
# Allocator-level queries: profile masks vs pointwise probes


def test_conflict_profile_and_conflicts_any_match_reference_probes():
    program = load("frag")
    for analyze in (analyze_thread, analyze_thread_reference):
        an = analyze(program)
        b = estimate_bounds(an)
        ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
        assert (an.dense is not None) == (analyze is analyze_thread)
        pieces = list(ctx.all_pieces())
        # Split one range so both the split-other and split-self probe
        # paths run.
        for piece in pieces:
            if len(piece.slots) > 1:
                part = frozenset([min(piece.slots)])
                ctx.split_piece(piece, part, piece.color)
                break
        for piece in ctx.all_pieces():
            profile = ctx.conflict_profile(piece)
            assert ctx.colors_in_conflict(piece) == set(profile)
            for color in range(ctx.r):
                pointwise = ctx.conflicts_with_color(piece, color)
                assert ctx.conflicts_any(piece, color) == bool(pointwise)
                entry = profile.get(color)
                got = set() if entry is None else {p.pid for p in entry[0]}
                assert got == {p.pid for p, _ in pointwise}


def test_profile_entries_identical_across_impls():
    program = load("drr")

    def snapshot(analyze):
        an = analyze(program)
        b = estimate_bounds(an)
        ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
        out = {}
        for piece in ctx.all_pieces():
            prof = ctx.conflict_profile(piece)
            out[(piece.reg, piece.pid)] = {
                color: (tuple(e[0]), e[1]) for color, e in prof.items()
            }
        return out

    assert snapshot(analyze_thread_reference) == snapshot(analyze_thread)


# ---------------------------------------------------------------------------
# Satellites: n_edges cache, precomputed def sets


def test_n_edges_cache_tracks_mutation():
    g = UndirectedGraph()
    for n in "abc":
        g.add_node(n)
    assert g.n_edges() == 0
    g.add_edge("a", "b")
    assert g.n_edges() == 1  # cache invalidated by the mutation
    assert g.n_edges() == 1  # and served from cache
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    assert g.n_edges() == 3
    g.remove_edge("a", "b")
    assert g.n_edges() == 2
    g.remove_node("c")
    assert g.n_edges() == 0


def test_live_across_csb_uses_def_sets():
    text = """
        movi %a, 1
        movi %b, 2
        ctx
        add %c, %a, %b
        store %c, [%a]
        halt
    """
    program = parse_program(text, "t")
    rl = compute_liveness_reference(program)
    dl = compute_liveness(program)
    for c in (2,):
        assert rl.live_across_csb(c) == dl.live_across_csb(c)
    # The lazily built def-set cache matches the instructions.
    assert rl.def_sets is not None or rl.live_across_csb(2) is not None
    for i, instr in enumerate(program.instrs):
        expected = frozenset(instr.defs)
        assert rl.def_sets is None or rl.def_sets[i] == expected


# ---------------------------------------------------------------------------
# Property-based differential over generated programs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402

from tests.test_properties import (  # noqa: E402
    SETTINGS,
    branching_program,
    straightline_program,
)


@SETTINGS
@given(straightline_program())
def test_generated_straightline_identical(text):
    ra, da = both_analyses(parse_program(text, "gen"))
    assert_analyses_identical(ra, da)
    assert_merges_identical(da.graphs, ra.graphs)


@SETTINGS
@given(branching_program())
def test_generated_branching_identical(text):
    program = parse_program(text, "gen")
    ra, da = both_analyses(program)
    assert_analyses_identical(ra, da)
    assert_colorings_identical(da.graphs)
    assert_merges_identical(da.graphs, ra.graphs)
    with reference_kernels():
        rb = estimate_bounds(ra)
    db = estimate_bounds(da)
    assert list(rb.coloring.items()) == list(db.coloring.items())
    assert (rb.min_pr, rb.max_pr, rb.min_r, rb.max_r) == (
        db.min_pr,
        db.max_pr,
        db.min_r,
        db.max_r,
    )

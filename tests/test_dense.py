"""Differential tests: dense bitset analysis kernels vs the reference.

The dense implementation (:mod:`repro.core.dense`) promises *bit
identity*, not just semantic equivalence: every ``ThreadAnalysis``
field -- iteration orders included -- the renamed program, the bounds,
and the final allocations must match the reference set-based
construction exactly.  These tests compare the two implementations
field by field over every suite kernel, over randomly generated
programs (reusing the generators of ``tests/test_properties.py``), and
at the allocator-query level (``conflict_profile`` / ``conflicts_any``
vs the pointwise reference probes).
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.analysis import analyze_thread, true_conflict
from repro.core.bounds import estimate_bounds
from repro.core.context import initial_context
from repro.core.dense import (
    ANALYSIS_IMPLS,
    analysis_is_dense,
    get_default_analysis_impl,
    mask_of_slots,
    set_default_analysis_impl,
)
from repro.core.pipeline import allocate_programs
from repro.igraph.graph import UndirectedGraph
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.suite.registry import BENCHMARKS, load


@contextlib.contextmanager
def using(impl):
    previous = set_default_analysis_impl(impl)
    try:
        yield
    finally:
        set_default_analysis_impl(previous)


# ---------------------------------------------------------------------------
# Registry


def test_registry_roundtrip():
    previous = get_default_analysis_impl()
    try:
        assert set_default_analysis_impl("reference") == previous
        assert get_default_analysis_impl() == "reference"
        assert not analysis_is_dense()
        assert set_default_analysis_impl("dense") == "reference"
        assert analysis_is_dense()
    finally:
        set_default_analysis_impl(previous)


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError):
        set_default_analysis_impl("sparse")
    assert get_default_analysis_impl() in ANALYSIS_IMPLS


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
    with using("reference"):
        ra = analyze_thread(program)
    with using("dense"):
        da = analyze_thread(program)
    return ra, da


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


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_suite_kernel_analyses_identical(name):
    ra, da = both_analyses(load(name))
    assert da.dense is not None and ra.dense is None
    assert_analyses_identical(ra, da)


@pytest.mark.parametrize("name", ["frag", "crc", "fir2dim"])
def test_bounds_and_allocation_identical(name):
    program = load(name)
    with using("reference"):
        rb = estimate_bounds(analyze_thread(program))
        rout = allocate_programs([program, program], nreg=64)
    with using("dense"):
        db = estimate_bounds(analyze_thread(program))
        dout = allocate_programs([program, program], nreg=64)
    assert rb.coloring == db.coloring
    assert (rb.min_pr, rb.max_pr, rb.min_r, rb.max_r) == (
        db.min_pr,
        db.max_pr,
        db.min_r,
        db.max_r,
    )
    assert rout.summary() == dout.summary()
    for rp, dp in zip(rout.programs, dout.programs):
        assert format_program(rp) == format_program(dp)


# ---------------------------------------------------------------------------
# Allocator-level queries: profile masks vs pointwise probes


def test_conflict_profile_and_conflicts_any_match_reference_probes():
    program = load("frag")
    for impl in ("dense", "reference"):
        with using(impl):
            an = analyze_thread(program)
            b = estimate_bounds(an)
            ctx = initial_context(
                an, b.coloring, b.max_pr, b.max_r - b.max_pr
            )
            assert (an.dense is not None) == (impl == "dense")
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

    def snapshot(impl):
        with using(impl):
            an = analyze_thread(program)
            b = estimate_bounds(an)
            ctx = initial_context(
                an, b.coloring, b.max_pr, b.max_r - b.max_pr
            )
            out = {}
            for piece in ctx.all_pieces():
                prof = ctx.conflict_profile(piece)
                out[(piece.reg, piece.pid)] = {
                    color: (tuple(e[0]), e[1]) for color, e in prof.items()
                }
            return out

    assert snapshot("reference") == snapshot("dense")


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
    from repro.cfg.liveness import compute_liveness

    with using("reference"):
        rl = compute_liveness(program)
    with using("dense"):
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


@SETTINGS
@given(branching_program())
def test_generated_branching_identical(text):
    program = parse_program(text, "gen")
    ra, da = both_analyses(program)
    assert_analyses_identical(ra, da)
    with using("reference"):
        rb = estimate_bounds(analyze_thread(program))
    with using("dense"):
        db = estimate_bounds(analyze_thread(program))
    assert rb.coloring == db.coloring
    assert (rb.min_pr, rb.max_pr, rb.min_r, rb.max_r) == (
        db.min_pr,
        db.max_pr,
        db.min_r,
        db.max_r,
    )

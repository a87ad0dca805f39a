"""Differential tests: dense bitset analysis kernels vs the reference.

The dense implementation (:mod:`repro.core.dense`) promises *bit
identity*, not just semantic equivalence: every ``ThreadAnalysis``
field -- iteration orders included -- the renamed program and the
bounds must match the reference set-based construction exactly.  These
tests compare the two implementations field by field over every suite
kernel, over randomly generated programs (reusing the generators of
``tests/test_properties.py``), for both coloring heuristics, and at the
allocator-query level (``conflict_profile`` / ``conflicts_any`` vs the
pointwise probes and a walk over the conflict pairs).  The Figure-7
merge on the interference masks is compared with its set-based twin
over the suite, the ``conftest`` fixtures and both generated-program
strategies.  The reference side is always called by name:
``analyze_thread_reference``, ``compute_liveness_reference``,
``dsatur_color_reference``, ``simplify_color_reference`` and
``merge_region_colorings_reference``.

The allocator takes only dense-built analyses, so whole allocations are
compared at the analysis level: every analysis an allocation read must
equal the reference analysis, and with one allocation path, equal
analyses allocate identically.  The ``no_pair_lists`` fixture keeps the
reference side off the production path.
"""

from __future__ import annotations

import gc
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.cfg.liveness import compute_liveness, compute_liveness_reference
from repro.core.analysis import (
    ThreadAnalysis,
    analyze_thread,
    analyze_thread_reference,
    true_conflict,
)
from repro.core.bounds import estimate_bounds
from repro.core.cache import scoped
from repro.core.context import AllocContext, initial_context
from repro.core.dense import DenseAnalysisIndex, mask_of_slots
from repro.core.pipeline import allocate_programs
from repro.harness.allocperf import build_grid
from repro.harness.table2 import run_table2
from repro.harness.table3 import SCENARIOS
from repro.igraph import coloring
from repro.igraph.graph import UndirectedGraph, bit_indices
from repro.igraph.merge import merge_region_colorings_reference
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.suite.registry import BENCHMARKS, load
from tests.conftest import FIG3_T1, FIG3_T2, MINI_KERNEL, STRAIGHT
from tests.test_core_context import pairs_of_lists
from tests.test_igraph_merge_edges import assert_merges_identical
from tests.test_service import hammer_threads


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
    lists = ra.conflict_lists()
    assert lists == da.conflict_lists()
    # The dense views against the same relation read off the stored
    # pairs.
    assert da.conflict_pairs() == pairs_of_lists(lists)
    assert da.conflict_neighbors() == neighbors_of_lists(lists)
    assert neighbor_pairs(da) == pair_set(da)


def neighbors_of_lists(lists):
    """``conflict_neighbors()`` from ``(slot, other)`` lists: ranks in
    ``str`` order, one neighbour mask per range."""
    rank = {r: i for i, r in enumerate(sorted(lists, key=str))}
    masks = [0] * len(rank)
    for a, pairs in lists.items():
        for _, b in pairs:
            masks[rank[a]] |= 1 << rank[b]
    return rank, masks


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
#: own ceiling budget) are allocated whole.
GRID_KERNELS = ("crc", "md5", "url")


@pytest.mark.parametrize(
    "name, nthd",
    [("frag", 2), ("crc", 2), ("fir2dim", 2)]
    + [(name, 4) for name in GRID_KERNELS],
    ids=["frag", "crc", "fir2dim"] + [f"grid-{n}" for n in GRID_KERNELS],
)
def test_bounds_and_allocation_identical(name, nthd):
    program = load(name)
    with scoped() as cache:
        if nthd == 2:
            budgets = [64]
        else:
            budgets = [nreg for _, nreg, _ in build_grid([name])]
        db = cache.bounds(program)
        outs = [
            allocate_programs([program] * nthd, nreg=nreg) for nreg in budgets
        ]
    # Every thread at every budget read the one cached dense analysis;
    # it equals the reference analysis, its merge the reference merge,
    # and its bounds are the reference liveness' over that merge.
    read = {id(a): a for o in outs for a in o.analyses}
    assert len(read) == 1
    (da,) = read.values()
    assert da.dense is not None
    ra = analyze_thread_reference(program)
    assert_analyses_identical(ra, da)
    merged = assert_merges_identical(da.graphs, ra.graphs)
    min_r = ra.liveness.reg_p_max()
    min_pr = ra.liveness.reg_p_csb_max()
    max_pr = max(merged.max_pr, min_pr)
    assert list(db.coloring.items()) == list(merged.coloring.items())
    assert (db.min_pr, db.max_pr, db.min_r, db.max_r) == (
        min_pr,
        max_pr,
        min_r,
        max(merged.max_r, min_r, max_pr),
    )


# ---------------------------------------------------------------------------
# Allocator-level queries: profile masks vs pointwise probes


def test_conflict_profile_and_conflicts_any_match_reference_probes():
    an = analyze_thread(load("frag"))
    b = estimate_bounds(an)
    ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
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


def pair_walk_profile(ctx, piece, lists):
    """``conflict_profile`` as a walk over the piece's ``(slot, other)``
    conflict pairs: skip the slots the piece does not own, group by the
    color of the piece occupying each slot, list pieces in
    first-occurrence order, and OR the slot bits."""
    by_color = {}
    seen = set()
    for s, other_reg in lists[piece.reg]:
        if s not in piece.slots:
            continue
        other = ctx.piece_of(other_reg, s)
        entry = by_color.setdefault(other.color, [[], 0])
        if other.pid not in seen:
            seen.add(other.pid)
            entry[0].append(other)
        entry[1] |= 1 << s
    return by_color


def test_profile_entries_identical_across_impls():
    # The mask-built profile against the pair walk, on every suite
    # kernel after random splits (of split ranges too) and recolors:
    # the same colors in the same order, pieces in the same order, and
    # the same slot masks.
    rng = random.Random(31)
    matched = 0
    for name in sorted(BENCHMARKS):
        an = analyze_thread(load(name))
        lists = an.conflict_lists()  # rebuilt on every call: derive once
        b = estimate_bounds(an)
        ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
        for _ in range(6):
            splittable = [p for p in ctx.all_pieces() if len(p.slots) > 1]
            piece = rng.choice(splittable)
            slots = sorted(piece.slots)
            part = frozenset(rng.sample(slots, rng.randrange(1, len(slots))))
            ctx.split_piece(piece, part, rng.randrange(ctx.r))
            rng.choice(ctx.all_pieces()).color = rng.randrange(ctx.r)
        assert len(ctx.multi_piece_regs) > 1
        for piece in ctx.all_pieces():
            want = pair_walk_profile(ctx, piece, lists)
            got = ctx.conflict_profile(piece)
            assert list(got.items()) == list(want.items()), (name, piece)
            matched += 1
    assert matched > 800


# ---------------------------------------------------------------------------
# The conflict relation as masks: oracle, racing reads, no pair lists


def regrouped(pairs):
    """A ``conflicts_at`` entry as ``{other: slot mask}``."""
    out = {}
    for s, b in pairs:
        out[b] = out.get(b, 0) | 1 << s
    return out


def assert_conflict_masks_match_reference(program):
    """Every range's mask map against the reference's stored pairs."""
    ra, da = both_analyses(program)
    assert da.conflicts_at is None  # the dense analysis stores no pairs
    for reg, pairs in ra.conflicts_at.items():
        masks = da.dense.conflict_masks(reg)
        assert masks == regrouped(pairs), reg
        assert list(masks) == sorted(masks, key=str)  # rank order


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_suite_conflict_masks_match_reference_pairs(name):
    assert_conflict_masks_match_reference(load(name))


def test_conflict_masks_built_on_a_racing_first_read_are_equal():
    # Service workers share cached analyses, so the per-range memo may
    # be filled by several threads at once; each sees the same maps.
    an = analyze_thread(load("md5"))
    assert an.dense._conflict_masks == {}
    seen = [None] * 8

    def read(i):
        seen[i] = {reg: an.dense.conflict_masks(reg) for reg in an.slots}

    hammer_threads(read, n=8)
    reference = analyze_thread_reference(load("md5"))
    expected = {
        reg: regrouped(pairs) for reg, pairs in reference.conflicts_at.items()
    }
    assert seen == [expected] * 8


def _no_pair_lists(self):
    raise AssertionError("pair lists built for a dense analysis")


def _forbidden(name):
    def run(*args, **kwargs):
        raise AssertionError(f"{name} ran on the allocation path")

    return run


@pytest.fixture
def no_pair_lists(monkeypatch):
    """Fail any derivation of ``(slot, other)`` pair lists, or of the
    per-pair slot index, from an analysis (every analysis the tests
    using it build is dense), and any run of an oracle the tests keep
    in ``src/``: the reference analysis and merge, and the pointwise
    conflict probes."""
    monkeypatch.setattr(DenseAnalysisIndex, "conflict_lists", _no_pair_lists)
    monkeypatch.setattr(ThreadAnalysis, "conflict_pairs", _no_pair_lists)
    monkeypatch.setattr(
        AllocContext,
        "conflicts_with_color",
        _forbidden("AllocContext.conflicts_with_color"),
    )
    monkeypatch.setattr(
        ThreadAnalysis,
        "interferes_at",
        _forbidden("ThreadAnalysis.interferes_at"),
    )
    # Every module's binding of the two functions, under any name.
    oracles = (analyze_thread_reference, merge_region_colorings_reference)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is func for func in oracles):
                monkeypatch.setattr(module, attr, _forbidden(value.__name__))


def test_table2_split_row_builds_no_pair_lists(no_pair_lists):
    # wraps_recv's minimal allocation splits ranges: 4 moves.
    with scoped():
        (row,) = run_table2(["wraps_recv"])
    assert row.moves == 4


@pytest.mark.parametrize("nreg", [128, 118])
def test_table3_descent_builds_no_pair_lists(no_pair_lists, nreg):
    # Table 3's md5+fir2dim scenario at its budget, and at its floor,
    # where the descent probes, splits and validates split contexts.
    programs = [load(n) for n in SCENARIOS["md5+fir2dim"]]
    with scoped():
        out = allocate_programs(programs, nreg=nreg)
    assert all(a.dense is not None for a in out.analyses)
    if nreg == 118:
        assert out.total_moves > 0
        assert any(a.dense._conflict_masks for a in out.analyses)


def test_md5_analysis_retains_under_6_mb():
    analyze_thread(load("md5"))  # warm-up: imports and interned values
    program = load("md5")
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        an = analyze_thread(program)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert an.dense is not None
    retained = (after - before) / 2**20
    assert retained < 6, f"md5's dense analysis retains {retained:.2f} MB"


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
    # Both builders precompute the def sets from the instructions.
    for i, instr in enumerate(program.instrs):
        expected = frozenset(instr.defs)
        assert rl.def_sets[i] == dl.def_sets[i] == expected


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
def test_generated_straightline_conflict_masks_match_reference(text):
    assert_conflict_masks_match_reference(parse_program(text, "gen"))


@SETTINGS
@given(branching_program())
def test_generated_branching_conflict_masks_match_reference(text):
    assert_conflict_masks_match_reference(parse_program(text, "gen"))


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

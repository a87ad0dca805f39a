"""White-box tests for the intra-thread allocator's split machinery."""

import pytest

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.context import initial_context
from repro.core.intra import IntraAllocator
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.suite.registry import BENCHMARKS, load
from tests.conftest import FIG3_T1, MINI_KERNEL

#: Figure 3's thread 1 with a one-instruction loop at L2: the flow edge
#: (L2, L2) is a self-loop of %b and %c.  At the minimum both ranges are
#: split, each keeping L2 inside a multi-slot piece.
SELF_LOOP = """
    movi %a, 1
    ctx
    bnei %a, 0, L1
    movi %b, 2
    add %x, %a, %b
    movi %c, 3
    br L2
L1:
    movi %c, 4
    add %x, %a, %c
    movi %b, 5
L2:
    bne %b, %c, L2
    add %x, %b, %c
    load %y, [%x]
    halt
"""


def v(name):
    return VirtualReg(name)


def fresh(program_text, name="t"):
    an = analyze_thread(parse_program(program_text, name))
    bounds = estimate_bounds(an)
    alloc = IntraAllocator(an, bounds)
    return an, bounds, alloc


def test_swap_colors():
    an, bounds, alloc = fresh(FIG3_T1)
    ctx = alloc.context.copy()
    before = {p.pid: p.color for p in ctx.all_pieces()}
    colors = sorted({p.color for p in ctx.all_pieces()})
    if len(colors) < 2:
        pytest.skip("not enough colors to swap")
    a, b = colors[0], colors[1]
    alloc._swap_colors(ctx, a, b)
    for piece in ctx.all_pieces():
        old = before[piece.pid]
        if old == a:
            assert piece.color == b
        elif old == b:
            assert piece.color == a
        else:
            assert piece.color == old


def test_swap_same_color_noop():
    an, bounds, alloc = fresh(FIG3_T1)
    ctx = alloc.context.copy()
    before = {p.pid: p.color for p in ctx.all_pieces()}
    alloc._swap_colors(ctx, 0, 0)
    assert {p.pid: p.color for p in ctx.all_pieces()} == before


def test_shatter_produces_single_slot_fragments():
    an, bounds, alloc = fresh(MINI_KERNEL, "k")
    ctx = alloc.context.copy()
    piece = max(ctx.all_pieces(), key=lambda p: len(p.slots))
    n_slots = len(piece.slots)
    if n_slots < 2:
        pytest.skip("largest piece already atomic")
    fresh_pids = alloc._shatter(ctx, piece, protected=set())
    assert fresh_pids is not None
    assert len(fresh_pids) == n_slots  # n-1 fragments + the piece itself
    for pid in fresh_pids:
        assert len(ctx.pieces[pid].slots) == 1


def test_shatter_refuses_single_slot():
    an, bounds, alloc = fresh(MINI_KERNEL, "k")
    ctx = alloc.context.copy()
    piece = min(ctx.all_pieces(), key=lambda p: len(p.slots))
    if len(piece.slots) != 1:
        pytest.skip("no single-slot piece in fixture")
    assert alloc._shatter(ctx, piece, protected=set()) is None


def test_eliminate_color_reports_failure_cleanly():
    # A clique at a CSB cannot lose a private color below MinPR; the
    # helper must return False rather than corrupt the context.
    an, bounds, alloc = fresh(
        """
        movi %a, 1
        movi %b, 2
        movi %c, 3
        ctx
        store %a, [%b]
        store %b, [%c]
        store %c, [%a]
        halt
        """
    )
    assert bounds.min_pr == 3
    ctx = alloc.context.copy()
    ok = alloc._eliminate_color(ctx, 0)
    if not ok:
        alloc.context.validate()  # accepted context untouched


def test_reduce_keeps_accepted_context_valid_after_many_steps():
    an, bounds, alloc = fresh(MINI_KERNEL, "k")
    steps = 0
    while steps < 10:
        res = alloc.probe_reduce_pr() or alloc.probe_reduce_sr()
        if res is None:
            break
        alloc.commit(res)
        alloc.context.validate()
        steps += 1
    assert alloc.context.pr >= bounds.min_pr
    assert alloc.context.r >= bounds.min_r


def test_eliminate_unnecessary_moves_reduces_cost():
    an, bounds, alloc = fresh(FIG3_T1)
    ctx = alloc.context.copy()
    # Split %b artificially with a pointless color change, then let the
    # move-elimination pass absorb it back.
    piece = ctx.pieces_of(v("b"))[0]
    if len(piece.slots) < 2:
        pytest.skip("b too small to split in this shape")
    part = frozenset([max(piece.slots)])
    frag = ctx.split_piece(piece, part, piece.color)
    other = next(
        c for c in range(ctx.r) if c != piece.color
        and not ctx.conflicts_with_color(frag, c)
    )
    frag.color = other
    cost_before = ctx.move_cost()
    assert cost_before >= 1
    alloc._eliminate_unnecessary_moves(ctx)
    assert ctx.move_cost() < cost_before


def test_probe_shift_respects_min_pr():
    an, bounds, alloc = fresh(FIG3_T1)
    # Drive PR to its minimum first.
    while alloc.context.pr > bounds.min_pr:
        res = alloc.probe_reduce_pr() or alloc.probe_shift()
        if res is None:
            break
        alloc.commit(res)
    if alloc.context.pr == bounds.min_pr:
        assert alloc.probe_shift() is None


def _full_scan_gains(ctx, piece):
    """Reference gain count: every flow edge of the whole range."""
    gains = {}
    for i, j in ctx.analysis.flow_edges.get(piece.reg, ()):
        pa = ctx.piece_of(piece.reg, i)
        pb = ctx.piece_of(piece.reg, j)
        if pa.pid == piece.pid and pb.pid != piece.pid:
            gains[pb.color] = gains.get(pb.color, 0) + 1
        elif pb.pid == piece.pid and pa.pid != piece.pid:
            gains[pa.color] = gains.get(pa.color, 0) + 1
    return gains


@pytest.fixture
def gains_oracle(monkeypatch):
    """Check every ``_absorb_gains`` call against the full scan; collects
    the slots of each piece asked about."""
    asked = []
    indexed = IntraAllocator._absorb_gains

    def checked(self, ctx, piece):
        got = indexed(self, ctx, piece)
        assert got == _full_scan_gains(ctx, piece), (
            f"{piece.reg} slots {sorted(piece.slots)}"
        )
        asked.append(piece.slots)
        return got

    monkeypatch.setattr(IntraAllocator, "_absorb_gains", checked)
    return asked


def test_absorb_gains_match_full_scan_on_table2(gains_oracle):
    for name in BENCHMARKS:
        an = analyze_thread(load(name))
        bounds = estimate_bounds(an)
        IntraAllocator(an, bounds).realize(
            bounds.min_pr, bounds.min_r - bounds.min_pr
        )
    assert gains_oracle


def test_absorb_gains_ignore_self_loop(gains_oracle):
    an, bounds, alloc = fresh(SELF_LOOP, "loop")
    loops = {i for edges in an.flow_edges.values() for i, j in edges if i == j}
    assert loops
    alloc.realize(bounds.min_pr, bounds.min_r - bounds.min_pr)
    assert any(loops & slots for slots in gains_oracle)

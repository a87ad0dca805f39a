"""Unit tests for allocation contexts (pieces, conflicts, splitting)."""

import pytest

from repro.core.analysis import analyze_thread, analyze_thread_reference
from repro.core.bounds import estimate_bounds
from repro.core.context import AllocContext, initial_context
from repro.core.dense import DenseAnalysisIndex
from repro.errors import AllocationError
from repro.igraph.graph import bit_indices
from repro.ir.operands import VirtualReg
from repro.suite.registry import BENCHMARKS, load


def v(name):
    return VirtualReg(name)


def build(program):
    an = analyze_thread(program)
    b = estimate_bounds(an)
    ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
    return an, b, ctx


def test_initial_context_valid(fig3_t1):
    an, b, ctx = build(fig3_t1)
    ctx.validate()
    assert ctx.pr == b.max_pr
    assert ctx.r == b.max_r


def test_boundary_classification(fig3_t1):
    an, b, ctx = build(fig3_t1)
    a_piece = ctx.pieces_of(v("a"))[0]
    assert ctx.is_boundary(a_piece)
    b_piece = ctx.pieces_of(v("b"))[0]
    assert not ctx.is_boundary(b_piece)


def test_move_cost_zero_when_unsplit(fig3_t1):
    an, b, ctx = build(fig3_t1)
    assert ctx.move_cost() == 0
    assert ctx.crossing_edges() == []


def test_split_creates_crossings(straight):
    an, b, ctx = build(straight)
    piece = ctx.pieces_of(v("a"))[0]
    # Carve off the tail of %a's range with a different color.
    part = frozenset({3, 4})
    fresh_color = ctx.r - 1
    fragment = ctx.split_piece(piece, part, piece.color)
    fragment.color = (piece.color + 1) % ctx.r
    cost = ctx.move_cost()
    assert cost >= 1
    assert len(ctx.crossing_edges()) == cost
    assert v("a") in ctx.multi_piece_regs


def test_split_requires_proper_subset(straight):
    an, b, ctx = build(straight)
    piece = ctx.pieces_of(v("a"))[0]
    with pytest.raises(AllocationError):
        ctx.split_piece(piece, piece.slots, 0)
    with pytest.raises(AllocationError):
        ctx.split_piece(piece, frozenset(), 0)


def test_copy_is_independent(straight):
    an, b, ctx = build(straight)
    clone = ctx.copy()
    piece = clone.pieces_of(v("a"))[0]
    clone.split_piece(piece, frozenset({4}), piece.color)
    assert len(ctx.pieces_of(v("a"))) == 1
    assert len(clone.pieces_of(v("a"))) == 2


def test_conflict_profile_matches_pointwise_queries(fig3_t1):
    an, b, ctx = build(fig3_t1)
    for piece in ctx.all_pieces():
        profile = ctx.conflict_profile(piece)
        for color in range(ctx.r):
            listed = ctx.conflicts_with_color(piece, color)
            if color in profile:
                assert {p.pid for p in profile[color][0]} == {
                    p.pid for p, _ in listed
                }
            else:
                assert listed == []


def test_validate_rejects_shared_boundary(straight):
    an, b, ctx = build(straight)
    piece = ctx.pieces_of(v("a"))[0]
    assert ctx.is_boundary(piece)
    piece.color = ctx.r - 1 if ctx.r - 1 >= ctx.pr else piece.color
    if piece.color >= ctx.pr:
        with pytest.raises(AllocationError):
            ctx.validate()


def test_validate_rejects_conflicting_colors(fig3_t1):
    an, b, ctx = build(fig3_t1)
    pb = ctx.pieces_of(v("b"))[0]
    pc = ctx.pieces_of(v("c"))[0]
    pc.color = pb.color
    with pytest.raises(AllocationError):
        ctx.validate()


# ---------------------------------------------------------------------------
# The no-split check against the per-pair walk


def pair_walk_message(ctx):
    """The first clash of an unsplit context, in ``conflict_pairs()``
    order, worded as the per-pair walk in ``validate`` words it."""
    for (a, b), slots in ctx.analysis.conflict_pairs().items():
        s = slots[0]
        color = ctx.piece_of(a, s).color
        if ctx.piece_of(b, s).color == color:
            return f"{a} and {b} conflict at slot {s} but share color {color}"
    return None


@pytest.mark.parametrize("analyze", [analyze_thread, analyze_thread_reference])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_unsplit_clash_reports_the_pair_walk_message(name, analyze):
    an = analyze(load(name))
    b = estimate_bounds(an)
    ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
    assert not ctx._colors_clash()
    rank, masks = an.conflict_neighbors()
    regs = sorted(rank, key=rank.get)
    # Recolor the first range that can take a conflicting neighbour's
    # color without breaking the palette or boundary invariants.
    for reg in regs:
        piece = ctx.pieces_of(reg)[0]
        neighbours = [regs[i] for i in bit_indices(masks[rank[reg]])]
        colors = [ctx.pieces_of(other)[0].color for other in neighbours]
        fits = [c for c in colors if c < ctx.pr or not ctx.is_boundary(piece)]
        if fits:
            piece.color = fits[0]
            break
    else:
        pytest.fail(f"{name}: no range can take a neighbour's color")
    assert ctx._colors_clash()
    expected = pair_walk_message(ctx)
    assert expected is not None
    with pytest.raises(AllocationError) as info:
        ctx.validate()
    assert str(info.value) == expected


def test_unsplit_validation_leaves_the_pair_index_unbuilt(monkeypatch):
    calls = []
    build_pairs = DenseAnalysisIndex.conflict_pair_slots

    def counted(self):
        calls.append(1)
        return build_pairs(self)

    monkeypatch.setattr(DenseAnalysisIndex, "conflict_pair_slots", counted)
    an = analyze_thread(load("frag"))
    b = estimate_bounds(an)
    ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
    assert an._conflict_pair_index is None and calls == []
    # Split one range without recoloring: still valid, now per-slot.
    piece = next(p for p in ctx.all_pieces() if len(p.slots) > 1)
    ctx.split_piece(piece, frozenset([min(piece.slots)]), piece.color)
    ctx.validate()
    index = an._conflict_pair_index
    assert index is not None and calls == [1]
    ctx.validate()
    assert an._conflict_pair_index is index and calls == [1]

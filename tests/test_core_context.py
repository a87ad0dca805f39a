"""Unit tests for allocation contexts (pieces, conflicts, splitting)."""

import random

import pytest

from repro.core.analysis import (
    ThreadAnalysis,
    analyze_thread,
    analyze_thread_reference,
)
from repro.core.bounds import estimate_bounds
from repro.core.context import AllocContext, initial_context
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


def pairs_of_lists(lists):
    """``conflict_pairs()`` from ``(slot, other)`` lists: each unordered
    pair once as ``(a, b)`` with ``str(a) < str(b)``, slots ascending."""
    grouped = {}
    for a, pairs in lists.items():
        for s, b in pairs:
            if str(a) < str(b):
                grouped.setdefault((a, b), []).append(s)
    return {k: tuple(v) for k, v in grouped.items()}


def walk_order(analyze, program):
    """The conflicting pairs in the order ``validate`` words a clash
    (``str`` order of ``(a, b)``), derived from the ``(slot, other)``
    lists of the analysis ``analyze`` builds -- derived from the masks
    of a dense-built one, stored by a reference-built one."""
    pairs = pairs_of_lists(analyze(program).conflict_lists())
    return sorted(pairs.items(), key=lambda kv: tuple(map(str, kv[0])))


def pair_walk_message(ctx, pairs):
    """The first clash of an unsplit context, in ``pairs`` order, worded
    as the per-pair walk in ``validate`` words it."""
    for (a, b), slots in pairs:
        s = slots[0]
        color = ctx.piece_of(a, s).color
        if ctx.piece_of(b, s).color == color:
            return f"{a} and {b} conflict at slot {s} but share color {color}"
    return None


# ``analyze`` builds the analysis the expected message is read from; the
# context is always built on the dense analysis the allocator takes.
@pytest.mark.parametrize("analyze", [analyze_thread, analyze_thread_reference])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_unsplit_clash_reports_the_pair_walk_message(name, analyze):
    an, b, ctx = build(load(name))
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
    expected = pair_walk_message(ctx, walk_order(analyze, load(name)))
    assert expected is not None
    with pytest.raises(AllocationError) as info:
        ctx.validate()
    assert str(info.value) == expected


def test_unsplit_validation_leaves_the_pair_index_unbuilt(monkeypatch):
    calls = []
    build_pairs = ThreadAnalysis.conflict_pairs

    def counted(self):
        calls.append(1)
        return build_pairs(self)

    monkeypatch.setattr(ThreadAnalysis, "conflict_pairs", counted)
    an = analyze_thread(load("frag"))
    b = estimate_bounds(an)
    ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
    assert an._conflict_pair_index is None and calls == []
    # Split one range without recoloring: still valid, checked per slot
    # on the conflict masks, and the pair index stays unbuilt.
    piece = next(p for p in ctx.all_pieces() if len(p.slots) > 1)
    ctx.split_piece(piece, frozenset([min(piece.slots)]), piece.color)
    ctx.validate()
    assert an._conflict_pair_index is None and calls == []


# ---------------------------------------------------------------------------
# The split check on the conflict masks


@pytest.mark.parametrize("name", ["frag", "crc", "drr", "fir2dim"])
def test_split_check_agrees_with_pointwise_probes(name):
    # Random splits, half of them recolored at random, and now and then
    # an unsplit range recolored: the mask check of a split context
    # finds a clash exactly when some piece clashes with its own color
    # by the pointwise interferes_at probes.  Trials without a clash are
    # kept, so later trials split split ranges.
    rng = random.Random(name)
    an = analyze_thread(load(name))
    b = estimate_bounds(an)
    ctx = initial_context(an, b.coloring, b.max_pr, b.max_r - b.max_pr)
    seen = set()
    for _ in range(40):
        trial = ctx.copy()
        piece = rng.choice([p for p in trial.all_pieces() if len(p.slots) > 1])
        slots = sorted(piece.slots)
        part = frozenset(rng.sample(slots, rng.randrange(1, len(slots))))
        color = rng.choice([piece.color, rng.randrange(trial.r)])
        trial.split_piece(piece, part, color)
        if rng.random() < 0.3:  # a clash between two unsplit ranges
            counts = trial._piece_count
            whole = [p for p in trial.all_pieces() if counts[p.reg] == 1]
            rng.choice(whole).color = rng.randrange(trial.r)
        pointwise = any(
            trial.conflicts_with_color(p, p.color) for p in trial.all_pieces()
        )
        assert trial._colors_clash() == pointwise
        seen.add(pointwise)
        if not pointwise:
            ctx = trial
    assert seen == {False, True}
    assert len(ctx.multi_piece_regs) > 1


@pytest.mark.parametrize("analyze", [analyze_thread, analyze_thread_reference])
def test_split_clash_reports_the_pair_walk_message(analyze):
    an, b, ctx = build(load("crc"))
    # Carve one conflicting slot out of a range into a piece with the
    # color of the range it conflicts with there.
    for (a, other), slots in walk_order(analyze, load("crc")):
        piece = ctx.pieces_of(a)[0]
        color = ctx.pieces_of(other)[0].color
        s = slots[-1]
        if len(piece.slots) > 1 and not (
            color >= ctx.pr and s in ctx.boundary_slots(piece)
        ):
            ctx.split_piece(piece, frozenset([s]), color)
            break
    with pytest.raises(AllocationError) as info:
        ctx.validate()
    assert str(info.value) == (
        f"{a} and {other} conflict at slot {s} but share color {color}"
    )

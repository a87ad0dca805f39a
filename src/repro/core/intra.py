"""The intra-thread register allocator (paper section 7, Figure 10).

Given an accepted context realizing ``(PR, SR)``, the allocator produces a
context for ``(PR-1, SR)`` (*Reduce-PR*) or ``(PR, SR-1)`` (*Reduce-SR*)
and reports its cost in ``mov`` instructions.  Following the paper it is
incremental: the inter-thread loop probes reductions against the current
accepted context and commits the cheapest.

Both reductions work by *eliminating one color* from the palette:

* try every candidate color, displace all its users, keep the cheapest
  successful elimination;
* a user piece is displaced by (a) plain recoloring when some legal color
  is conflict-free (the paper's ``NCN < PR-1`` / ``NCN < R-1`` tests),
  (b) recoloring a blocking neighbor first (the paper's "change their
  neighbors' colors" heuristic), or (c) live-range splitting: boundary
  pieces shed the conflicting NSRs (paper Figure 12, *NSR exclusion*),
  internal pieces shed exactly the overlapping slots (paper Figure 13);
* split-off fragments keep the dying color and are requeued, mirroring the
  paper's ``Set_color_node`` bookkeeping; fragments shrink strictly, so
  the loop terminates.

Deviation from the paper's prose, for correctness: eliminating a *private*
color also displaces its internal users.  The paper's Reduce-PR narrative
leaves internal nodes untouched, but internal nodes may legitimately sit on
private colors (the estimation colors IIGs over the full palette), and a
color cannot be removed from the palette while anyone uses it.

When the greedy machinery fails, :meth:`IntraAllocator.pointwise` rebuilds
the whole thread at one-piece-per-slot granularity -- the constructive form
of the paper's lower-bound lemma.  It succeeds whenever
``PR >= RegPCSBmax`` and ``PR + SR >= RegPmax``, so a feasible request
never fails; a move-elimination pass then coalesces colors to keep the
move count reasonable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.analysis import ThreadAnalysis
from repro.core.bounds import Bounds, estimate_bounds
from repro.core.context import AllocContext, Piece, ProfileEntry, initial_context
from repro.errors import AllocationError
from repro.igraph.graph import bit_indices, popcount
from repro.ir.operands import Reg
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics


@dataclass
class ReduceResult:
    """A successful reduction: the new context and its total move cost."""

    context: AllocContext
    cost: int


class IntraAllocator:
    """Incremental per-thread allocator bound to one analysed program."""

    #: Hard cap on displacement steps per color elimination, scaled by
    #: problem size inside :meth:`_eliminate_color`.
    _STEP_SLACK = 64

    def __init__(self, analysis: ThreadAnalysis, bounds: Optional[Bounds] = None):
        self.analysis = analysis
        self.bounds = bounds if bounds is not None else estimate_bounds(analysis)
        #: Lazy per-range slot -> flow-neighbor slots (see
        #: :meth:`_flow_neighbors`).
        self._flow_index: Dict[Reg, Dict[int, Tuple[int, ...]]] = {}
        self.context = initial_context(
            analysis,
            self.bounds.coloring,
            self.bounds.max_pr,
            self.bounds.max_r - self.bounds.max_pr,
        )

    def _note(self, event: str, **fields: object) -> None:
        """Telemetry for one allocation decision (no-op when disabled).

        Counts both the plain total and a per-thread labeled series, so
        decisions can be sliced by the kernel that paid for them.
        """
        em = obs.get_emitter()
        if em.enabled:
            name = self.analysis.program.name
            em.emit(event, thread=name, **fields)
            reg = obs_metrics.registry()
            reg.counter(event).inc()
            reg.counter(event, thread=name).inc()

    # ------------------------------------------------------------------
    # Public operations.
    # ------------------------------------------------------------------
    def feasible(self, pr: int, sr: int) -> bool:
        """Can ``(pr, sr)`` possibly be realized for this thread?"""
        return (
            pr >= self.bounds.min_pr
            and sr >= 0
            and pr + sr >= self.bounds.min_r
        )

    def probe_reduce_pr(self) -> Optional[ReduceResult]:
        """Cost of moving the accepted context to ``(PR-1, SR)``."""
        ctx = self.context
        if not self.feasible(ctx.pr - 1, ctx.sr):
            return None
        return self._reduce(ctx, private=True)

    def probe_reduce_sr(self) -> Optional[ReduceResult]:
        """Cost of moving the accepted context to ``(PR, SR-1)``."""
        ctx = self.context
        if not self.feasible(ctx.pr, ctx.sr - 1):
            return None
        return self._reduce(ctx, private=False)

    def probe_shift(self) -> Optional[ReduceResult]:
        """Cost of moving the accepted context to ``(PR-1, SR+1)``.

        The total palette size R stays the same: one private color is
        *reclassified* as shared.  Only boundary pieces must vacate the
        color (internal pieces may use shared colors), so this is usually
        the cheapest way for a thread to give a private register back when
        the global shared pool already covers the extra shared color.
        """
        ctx = self.context
        if not self.feasible(ctx.pr - 1, ctx.sr + 1):
            return None
        return self._shift(ctx)

    def commit(self, result: ReduceResult) -> None:
        """Accept a probed reduction as the new current context."""
        self.context = result.context

    def realize(self, pr: int, sr: int) -> AllocContext:
        """Drive the accepted context down to exactly ``(pr, sr)``.

        Reduces PR first, then SR (order is irrelevant to feasibility; each
        step takes the cheapest available color elimination).
        """
        if not self.feasible(pr, sr):
            raise AllocationError(
                f"{self.analysis.program.name}: ({pr}, {sr}) below bounds "
                f"{self.bounds}"
            )
        if pr > self.context.pr or pr + sr > self.context.r:
            raise AllocationError(
                f"{self.analysis.program.name}: cannot grow palette from "
                f"({self.context.pr}, {self.context.sr}) to ({pr}, {sr})"
            )
        while (self.context.pr, self.context.sr) != (pr, sr):
            if self.context.pr > pr and self.context.sr < sr:
                step = self._shift(self.context)
            elif self.context.pr > pr:
                step = self._reduce(self.context, private=True)
            else:
                step = self._reduce(self.context, private=False)
            if step is None:
                self.context = self.pointwise(pr, sr)
                return self.context
            self.context = step.context
        self.context.validate()
        return self.context

    # ------------------------------------------------------------------
    # One reduction = best single-color elimination.
    # ------------------------------------------------------------------
    def _reduce(
        self, ctx: AllocContext, private: bool
    ) -> Optional[ReduceResult]:
        colors = list(range(ctx.pr) if private else range(ctx.pr, ctx.r))
        # Cheapest eliminations first: colors with the fewest users.  The
        # paper tries every color; the ordering only changes which ties we
        # see first, plus it lets the zero-extra-cost early exit fire fast.
        users: Dict[int, int] = {c: 0 for c in colors}
        for piece in ctx.pieces.values():
            if piece.color in users:
                users[piece.color] += 1
        colors.sort(key=lambda c: (users[c], c))
        base_cost = ctx.move_cost()
        best: Optional[ReduceResult] = None
        failures = 0
        for c in colors:
            trial = ctx.copy()
            if not self._eliminate_color(trial, c):
                failures += 1
                # Color eliminations fail for structural reasons (pinned
                # boundary pressure) that rarely differ between colors;
                # after a few strikes, go straight to the rebuild below.
                if failures >= 4 and best is None:
                    break
                continue
            self._renumber_after_elimination(trial, c, private)
            self._eliminate_unnecessary_moves(trial)
            cost = trial.move_cost()
            if best is None or cost < best.cost:
                best = ReduceResult(context=trial, cost=cost)
                if cost <= base_cost:
                    break  # cannot do better than "no new moves"
        if best is not None:
            best.context.validate()
            return best
        # Greedy elimination failed on every color: rebuild pointwise.
        pr = ctx.pr - 1 if private else ctx.pr
        sr = ctx.sr if private else ctx.sr - 1
        rebuilt = self.pointwise(pr, sr)
        return ReduceResult(context=rebuilt, cost=rebuilt.move_cost())

    def _shift(self, ctx: AllocContext) -> Optional[ReduceResult]:
        """Best single-color reclassification private -> shared."""
        colors = list(range(ctx.pr))
        boundary_users: Dict[int, int] = {c: 0 for c in colors}
        for piece in ctx.pieces.values():
            if piece.color < ctx.pr and ctx.is_boundary(piece):
                boundary_users[piece.color] += 1
        colors.sort(key=lambda c: (boundary_users[c], c))
        base_cost = ctx.move_cost()
        best: Optional[ReduceResult] = None
        failures = 0
        for c in colors:
            trial = ctx.copy()
            if not self._clear_boundary_users(trial, c):
                failures += 1
                if failures >= 4 and best is None:
                    break
                continue
            self._swap_colors(trial, c, trial.pr - 1)
            trial.pr -= 1
            trial.sr += 1
            self._eliminate_unnecessary_moves(trial)
            cost = trial.move_cost()
            if best is None or cost < best.cost:
                best = ReduceResult(context=trial, cost=cost)
                if cost <= base_cost:
                    break
        if best is not None:
            best.context.validate()
            return best
        rebuilt = self.pointwise(ctx.pr - 1, ctx.sr + 1)
        return ReduceResult(context=rebuilt, cost=rebuilt.move_cost())

    def _clear_boundary_users(self, ctx: AllocContext, c: int) -> bool:
        """Displace every *boundary* piece off color ``c`` (internal pieces
        may keep it -- the color is about to become shared)."""
        queue: List[int] = [
            p.pid
            for p in ctx.all_pieces()
            if p.color == c and ctx.is_boundary(p)
        ]
        budget = 4 * (len(ctx.pieces) + len(queue)) + self._STEP_SLACK
        steps = 0
        while queue:
            steps += 1
            if steps > budget:
                return False
            pid = queue.pop(0)
            piece = ctx.pieces.get(pid)
            if piece is None or piece.color != c or not ctx.is_boundary(piece):
                continue
            fresh = self._displace(ctx, piece, banned=c)
            if fresh is None:
                return False
            queue.extend(
                pid2
                for pid2 in fresh
                if ctx.pieces[pid2].color == c
                and ctx.is_boundary(ctx.pieces[pid2])
            )
            budget += 2 * len(fresh)
        return True

    @staticmethod
    def _swap_colors(ctx: AllocContext, a: int, b: int) -> None:
        if a == b:
            return
        for piece in ctx.pieces.values():
            if piece.color == a:
                piece.color = b
            elif piece.color == b:
                piece.color = a

    @staticmethod
    def _renumber_after_elimination(
        ctx: AllocContext, c: int, private: bool
    ) -> None:
        for piece in ctx.pieces.values():
            if piece.color > c:
                piece.color -= 1
        if private:
            ctx.pr -= 1
        else:
            ctx.sr -= 1

    # ------------------------------------------------------------------
    # Color elimination.
    # ------------------------------------------------------------------
    def _eliminate_color(self, ctx: AllocContext, c: int) -> bool:
        """Displace every user of color ``c`` in ``ctx``; False on failure."""
        queue: List[int] = [
            p.pid for p in ctx.all_pieces() if p.color == c
        ]
        budget = 4 * (len(ctx.pieces) + len(queue)) + self._STEP_SLACK
        steps = 0
        while queue:
            steps += 1
            if steps > budget:
                return False
            pid = queue.pop(0)
            piece = ctx.pieces.get(pid)
            if piece is None or piece.color != c:
                continue
            fresh = self._displace(ctx, piece, banned=c)
            if fresh is None:
                return False
            queue.extend(fresh)
            budget += 2 * len(fresh)
        return True

    def _palette(self, ctx: AllocContext, piece: Piece) -> range:
        return range(ctx.pr) if ctx.is_boundary(piece) else range(ctx.r)

    def _displace(
        self, ctx: AllocContext, piece: Piece, banned: int
    ) -> Optional[List[int]]:
        """Move ``piece`` off its color, never using color ``banned``.

        Returns the pids of split-off fragments still carrying ``banned``
        (to be requeued), or None when the piece cannot be displaced.
        """
        candidates = [
            col
            for col in self._palette(ctx, piece)
            if col != banned and col != piece.color
        ]
        profile = ctx.conflict_profile(piece)
        # (a) plain recoloring -- the paper's NCN test.
        for col in candidates:
            if col not in profile:
                piece.color = col
                self._note(
                    "intra.recolor", reg=str(piece.reg), pid=piece.pid,
                    to=col, via="direct",
                )
                return []
        # (b) recolor blocking neighbors first.  Only worth attempting for
        # lightly-blocked colors: each blocker costs a conflict sweep, and
        # a color blocked by many pieces essentially never frees up.
        for col in sorted(candidates, key=lambda c: len(profile[c][0])):
            if len(profile[col][0]) > 4:
                break
            if self._recolor_via_neighbors(ctx, piece, profile[col][0], col, banned):
                self._note(
                    "intra.recolor", reg=str(piece.reg), pid=piece.pid,
                    to=col, via="neighbors",
                )
                return []
        # (c) live-range splitting.
        if ctx.is_boundary(piece):
            return self._split_boundary(ctx, piece, candidates, profile, banned)
        return self._split_internal(ctx, piece, candidates, profile, banned)

    def _recolor_via_neighbors(
        self,
        ctx: AllocContext,
        piece: Piece,
        blockers: Sequence[Piece],
        col: int,
        banned: int,
    ) -> bool:
        """Try to free ``col`` for ``piece`` by recoloring its blockers."""
        moved: List[Tuple[Piece, int]] = []
        for blocker in blockers:
            taken = ctx.colors_in_conflict(blocker)
            choice = next(
                (
                    bc
                    for bc in self._palette(ctx, blocker)
                    if bc not in (banned, blocker.color, col)
                    and bc not in taken
                ),
                None,
            )
            if choice is None:
                for b, old in reversed(moved):
                    b.color = old
                return False
            moved.append((blocker, blocker.color))
            blocker.color = choice
        if ctx.conflicts_any(piece, col):
            for b, old in reversed(moved):
                b.color = old
            return False
        piece.color = col
        return True

    def _split_boundary(
        self,
        ctx: AllocContext,
        piece: Piece,
        candidates: Sequence[int],
        profile: Dict[int, ProfileEntry],
        banned: int,
    ) -> Optional[List[int]]:
        """NSR exclusion (paper Figure 12).

        Shed, as a new internal fragment, every NSR where the target color
        conflicts; the boundary remainder (which keeps all its CSB slots)
        takes the target color.  Fails for a candidate color when a
        conflict sits on a CSB slot the piece is live across -- the value
        must be held right there, so exclusion cannot help.
        """
        an = self.analysis
        protected = set(ctx.boundary_slots(piece))
        if -1 in protected:
            protected.discard(-1)
            protected.add(0)
        protected_mask = 0
        for s in protected:
            protected_mask |= 1 << s
        best: Optional[Tuple[int, int, FrozenSet[int]]] = None
        for col in candidates:
            entry = profile.get(col)
            if entry is None:
                continue  # handled by plain recoloring already
            conflict_mask = entry[1]
            if conflict_mask & protected_mask:
                continue
            bad_regions: Set[int] = set()
            # Conflicts on CSB slots the piece merely occupies as a def/
            # use point (not live across it -- those are protected) are
            # shed individually rather than by region.
            bad_slot_mask = 0
            m = conflict_mask
            while m:
                low = m & -m
                m ^= low
                rid = an.nsr_of_slot(low.bit_length() - 1)
                if rid >= 0:
                    bad_regions.add(rid)
                else:
                    bad_slot_mask |= low
            part = frozenset(
                s
                for s in piece.slots
                if (an.nsr_of_slot(s) in bad_regions or (bad_slot_mask >> s) & 1)
                and s not in protected
            )
            if not part or not part < piece.slots:
                continue
            if best is None or len(part) < best[1]:
                best = (col, len(part), part)
        if best is None:
            return self._shatter(ctx, piece, protected)
        col, _, part = best
        fragment = ctx.split_piece(piece, part, piece.color)
        piece.color = col
        if ctx.conflicts_any(piece, col):
            # The exclusion removed every conflicting slot, so this cannot
            # fire; assert loudly if the model is ever wrong.
            raise AllocationError(
                f"NSR exclusion left conflicts on {piece.reg}"
            )
        self._note(
            "intra.split", reg=str(piece.reg), pid=piece.pid,
            kind="boundary", shed=len(part), to=col,
        )
        return [fragment.pid]

    def _split_internal(
        self,
        ctx: AllocContext,
        piece: Piece,
        candidates: Sequence[int],
        profile: Dict[int, ProfileEntry],
        banned: int,
    ) -> Optional[List[int]]:
        """In-NSR live-range splitting (paper Figure 13).

        Shed exactly the conflicting slots as a fragment keeping the old
        color; recolor the remainder.  The fragment is strictly smaller and
        is requeued, so repeated splitting terminates at single slots,
        where the pressure bound guarantees a free color.
        """
        piece_mask = 0
        for s in piece.slots:
            piece_mask |= 1 << s
        best: Optional[Tuple[int, int, int]] = None
        for col in candidates:
            entry = profile.get(col)
            if entry is None:
                continue
            cmask = entry[1]
            # The shed set must be a proper subset of the piece's slots.
            if cmask & ~piece_mask or cmask == piece_mask:
                continue
            k = popcount(cmask)
            if best is None or k < best[1]:
                best = (col, k, cmask)
        if best is None:
            return self._shatter(ctx, piece, protected=set())
        col, _, cmask = best
        part = frozenset(bit_indices(cmask))
        fragment = ctx.split_piece(piece, part, piece.color)
        piece.color = col
        if ctx.conflicts_any(piece, col):
            raise AllocationError(
                f"internal split left conflicts on {piece.reg}"
            )
        self._note(
            "intra.split", reg=str(piece.reg), pid=piece.pid,
            kind="internal", shed=len(part), to=col,
        )
        return [fragment.pid]

    def _shatter(
        self, ctx: AllocContext, piece: Piece, protected: Set[int]
    ) -> Optional[List[int]]:
        """Last-resort split: break ``piece`` into per-slot fragments.

        The remainder keeps the protected slots (CSB slots the piece is
        live across, which must stay together only in the sense that each
        is individually private -- they may be separate fragments too).
        Every fragment keeps the old color and is requeued.
        """
        if len(piece.slots) <= 1:
            return None  # single slot and still stuck: genuinely infeasible
        slots = sorted(piece.slots)
        keep = slots[0]
        fresh: List[int] = []
        for s in slots[1:]:
            fragment = ctx.split_piece(piece, frozenset([s]), piece.color)
            fresh.append(fragment.pid)
        # The piece itself (now single-slot) still carries the banned
        # color; requeue it as well by reporting it as fresh work.
        fresh.append(piece.pid)
        self._note(
            "intra.shatter", reg=str(piece.reg), pid=piece.pid,
            fragments=len(fresh),
        )
        return fresh

    # ------------------------------------------------------------------
    # Move elimination (paper: "Eliminate Unnecessary Moves").
    # ------------------------------------------------------------------
    def _eliminate_unnecessary_moves(self, ctx: AllocContext) -> None:
        """Recolor pieces toward their flow neighbors to drop crossings.

        A piece whose color differs from an adjacent piece of the same
        range costs one move per crossing edge; when it can legally take
        the neighbor's color the moves disappear.  Runs to a fixpoint
        (bounded), strictly decreasing total cost each pass.
        """
        split_regs = sorted(ctx.multi_piece_regs, key=str)
        if not split_regs:
            return
        for _ in range(len(ctx.pieces) + 2):
            improved = False
            for reg in split_regs:
                for piece in ctx.pieces_of(reg):
                    if self._try_absorb(ctx, piece):
                        improved = True
            if not improved:
                return

    def _flow_neighbors(self, reg: Reg) -> Dict[int, Tuple[int, ...]]:
        """``reg``'s flow edges indexed by slot, built on first use: each
        slot maps to the far endpoint of every edge incident to it.

        A self-loop ``(s, s)`` (a one-instruction loop) is listed once.
        Kept on the allocator: only its probes read the index.
        """
        index = self._flow_index.get(reg)
        if index is None:
            lists: Dict[int, List[int]] = {}
            for i, j in self.analysis.flow_edges.get(reg, ()):
                lists.setdefault(i, []).append(j)
                if j != i:
                    lists.setdefault(j, []).append(i)
            index = {s: tuple(far) for s, far in lists.items()}
            self._flow_index[reg] = index
        return index

    def _absorb_gains(self, ctx: AllocContext, piece: Piece) -> Dict[int, int]:
        """How many flow edges join ``piece`` to other pieces of its
        range, per color of the other piece.

        Only an edge with exactly one endpoint in the piece counts, so
        walking the piece's own slots sees every counted edge once.
        """
        index = self._flow_neighbors(piece.reg)
        owner = ctx.slot_map(piece.reg)
        pieces = ctx.pieces
        pid = piece.pid
        gains: Dict[int, int] = {}
        for s in piece.slots:
            for t in index.get(s, ()):
                other = owner[t]
                if other != pid:
                    col = pieces[other].color
                    gains[col] = gains.get(col, 0) + 1
        return gains

    def _try_absorb(self, ctx: AllocContext, piece: Piece) -> bool:
        """Recolor ``piece`` to a flow-neighbor color when that removes
        more crossings than it creates; returns True on improvement."""
        gains = self._absorb_gains(ctx, piece)
        if not gains:
            return False
        current_gain = gains.get(piece.color, 0)
        palette = self._palette(ctx, piece)
        taken = None
        for col, gain in sorted(gains.items()):
            if gain <= current_gain or col == piece.color:
                continue
            if col not in palette:
                continue
            if taken is None:
                taken = ctx.colors_in_conflict(piece)
            if col in taken:
                continue
            piece.color = col
            return True
        return False

    # ------------------------------------------------------------------
    # Pointwise rebuild (the Lemma-1 constructive fallback).
    # ------------------------------------------------------------------
    def pointwise(self, pr: int, sr: int) -> AllocContext:
        """Build a valid context for ``(pr, sr)`` from scratch.

        One piece per (range, slot); slots are colored in program order,
        preferring the color the range had at a predecessor slot so runs
        of slots coalesce and the move count stays small.  Guaranteed to
        succeed whenever ``pr >= RegPCSBmax`` and ``pr + sr >= RegPmax``.
        """
        if not self.feasible(pr, sr):
            raise AllocationError(
                f"{self.analysis.program.name}: pointwise ({pr}, {sr}) "
                f"below bounds {self.bounds}"
            )
        self._note("intra.pointwise", pr=pr, sr=sr)
        an = self.analysis
        r = pr + sr
        ctx = AllocContext(an, pr, sr)
        lv = an.liveness
        n = len(an.program.instrs)
        # color_here[reg] is the color of reg's piece at the previous slot
        # it occupied; used as the preference to minimize crossings.
        last_color: Dict[Reg, int] = {}
        for s in range(n):
            occ = an.occupants.get(s, ())
            if not occ:
                continue
            is_csb = an.program.instrs[s].is_csb
            across = an.live_across.get(s, frozenset()) if is_csb else frozenset()
            entry_live = lv.entry_live() if s == 0 else frozenset()
            carriers = [reg for reg in occ if reg in lv.live_in[s]]
            pure_defs = [
                reg
                for reg in occ
                if reg not in lv.live_in[s]
            ]
            taken: Set[int] = set()

            def choose(reg: Reg, limit: int, avoid: Set[int]) -> int:
                pref = last_color.get(reg)
                if pref is not None and pref < limit and pref not in avoid:
                    return pref
                for col in range(limit):
                    if col not in avoid:
                        return col
                raise AllocationError(
                    f"{an.program.name}: pointwise ran out of colors at "
                    f"slot {s} for {reg} (pr={pr}, sr={sr})"
                )

            # Private-constrained carriers first (live across this CSB or
            # live at entry), then the rest, then pure defs which may reuse
            # a dying carrier's color.
            ordered = sorted(
                carriers,
                key=lambda reg: (reg not in across and reg not in entry_live, str(reg)),
            )
            for reg in ordered:
                limit = pr if (reg in across or reg in entry_live) else r
                col = choose(reg, limit, taken)
                taken.add(col)
                ctx.new_piece(reg, frozenset([s]), col)
                last_color[reg] = col
            dying = an.dying_at.get(s, frozenset())
            dying_colors = {
                ctx.piece_of(reg, s).color for reg in dying if reg in carriers
            }
            defs_taken: Set[int] = set()
            for reg in sorted(pure_defs, key=str):
                col = choose(reg, r, (taken - dying_colors) | defs_taken)
                taken.add(col)
                defs_taken.add(col)
                ctx.new_piece(reg, frozenset([s]), col)
                last_color[reg] = col
        self._eliminate_unnecessary_moves(ctx)
        ctx.validate()
        return ctx

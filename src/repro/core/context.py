"""Allocation contexts: colored live-range pieces.

The intra-thread allocator (paper section 7) works by *live-range
splitting*: an original live range is partitioned into **pieces**, each a
set of occupied instruction slots with its own color.  A ``mov`` is paid on
every control-flow edge that carries the range between two pieces of
different colors.

Color convention: colors ``0 .. pr-1`` are **private** (they will map to
this thread's private physical registers), colors ``pr .. pr+sr-1`` are
**shared**.  A piece that holds its range at a CSB slot the range is live
across (or at program entry while the range is entry-live) is a *boundary
piece* and must use a private color; every other piece may use any color.

:class:`AllocContext` is a value object: the reduction operators copy it,
mutate the copy, and either commit or discard -- this is the paper's
"record the context of the last 2 invocations" machinery made explicit.
Copies are cheap: the slot->piece assignment is stored per variable and
copied lazily on first write (the reduction operators touch only a handful
of variables per step).

Every conflict query -- the profile, the yes/no probes and validation --
reads the conflict masks of the analysis'
:class:`~repro.core.dense.DenseAnalysisIndex`, so a context is built on
an :func:`~repro.core.analysis.analyze_thread` analysis.  The pointwise
:meth:`AllocContext.conflicts_with_color` stays as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple,
)

from repro.core.analysis import ThreadAnalysis
from repro.core.dense import mask_of_slots
from repro.errors import AllocationError
from repro.igraph.graph import bit_indices
from repro.ir.operands import Reg

#: A :meth:`AllocContext.conflict_profile` entry: the conflicting pieces
#: (in first-conflict order) and the bitmask of slots where the conflicts
#: occur.  A mutable 2-list rather than a tuple so the builder can
#: accumulate in place.
ProfileEntry = List  # [List[Piece], int]


@dataclass
class Piece:
    """One piece of a split live range."""

    pid: int
    reg: Reg
    slots: FrozenSet[int]
    color: int


class AllocContext:
    """A full coloring-with-splits of one thread.

    Attributes:
        analysis: the thread's static analysis (shared, never copied).
        pr: number of private colors in use (palette ``[0, pr)``).
        sr: number of shared colors in use (palette ``[pr, pr + sr)``).
    """

    def __init__(self, analysis: ThreadAnalysis, pr: int, sr: int):
        self.analysis = analysis
        self.pr = pr
        self.sr = sr
        self.pieces: Dict[int, Piece] = {}
        #: Per-variable slot -> pid assignment (copy-on-write).
        self._assign: Dict[Reg, Dict[int, int]] = {}
        #: Variables whose assignment map this context owns (mutable).
        self._owned: Set[Reg] = set()
        #: Piece count per variable (for the multi-piece fast path).
        self._piece_count: Dict[Reg, int] = {}
        self._next_pid = 0

    @property
    def multi_piece_regs(self) -> List[Reg]:
        """Variables split into more than one piece (the only ones that
        can contribute moves)."""
        return [r for r, n in self._piece_count.items() if n > 1]

    # ------------------------------------------------------------------
    # Basic accounting.
    # ------------------------------------------------------------------
    @property
    def r(self) -> int:
        return self.pr + self.sr

    def copy(self) -> "AllocContext":
        c = AllocContext(self.analysis, self.pr, self.sr)
        c.pieces = {
            pid: Piece(p.pid, p.reg, p.slots, p.color)
            for pid, p in self.pieces.items()
        }
        c._assign = dict(self._assign)  # shared var maps, cloned on write
        c._owned = set()
        c._piece_count = dict(self._piece_count)
        c._next_pid = self._next_pid
        return c

    def _writable_map(self, reg: Reg) -> Dict[int, int]:
        m = self._assign.get(reg)
        if m is None:
            m = {}
            self._assign[reg] = m
            self._owned.add(reg)
        elif reg not in self._owned:
            m = dict(m)
            self._assign[reg] = m
            self._owned.add(reg)
        return m

    def new_piece(self, reg: Reg, slots: FrozenSet[int], color: int) -> Piece:
        pid = self._next_pid
        self._next_pid += 1
        piece = Piece(pid, reg, slots, color)
        self.pieces[pid] = piece
        m = self._writable_map(reg)
        for s in slots:
            m[s] = pid
        self._piece_count[reg] = self._piece_count.get(reg, 0) + 1
        return piece

    def piece_of(self, reg: Reg, slot: int) -> Piece:
        return self.pieces[self._assign[reg][slot]]

    def slot_map(self, reg: Reg) -> Mapping[int, int]:
        """``reg``'s slot -> pid assignment, for bulk reads.

        Read-only: the map may be shared with other copies of this
        context until one of them writes to ``reg``.
        """
        return self._assign[reg]

    def pieces_of(self, reg: Reg) -> List[Piece]:
        seen: Set[int] = set()
        out: List[Piece] = []
        m = self._assign.get(reg, {})
        for s in sorted(m):
            pid = m[s]
            if pid not in seen:
                seen.add(pid)
                out.append(self.pieces[pid])
        return out

    def all_pieces(self) -> List[Piece]:
        return [self.pieces[pid] for pid in sorted(self.pieces)]

    # ------------------------------------------------------------------
    # Boundary classification.
    # ------------------------------------------------------------------
    def boundary_slots(self, piece: Piece) -> FrozenSet[int]:
        """CSB slots at which this piece holds its range across a switch.

        Slot ``-1`` (program entry) is reported when the range is live at
        entry and the piece owns slot 0.
        """
        out: Set[int] = set()
        for c in self.analysis.csb_slots_of.get(piece.reg, frozenset()):
            if c == -1:
                if 0 in piece.slots:
                    out.add(-1)
            elif c in piece.slots:
                out.add(c)
        return frozenset(out)

    def is_boundary(self, piece: Piece) -> bool:
        an = self.analysis
        for c in an.csb_slots_of.get(piece.reg, ()):
            if c == -1:
                if 0 in piece.slots:
                    return True
            elif c in piece.slots:
                return True
        return False

    # ------------------------------------------------------------------
    # Interference and conflicts.
    # ------------------------------------------------------------------
    def conflict_profile(self, piece: Piece) -> Dict[int, ProfileEntry]:
        """For every color used by a truly-conflicting piece, the
        conflicting pieces and the slots where the conflicts occur.

        ``profile[c] = [pieces, slot_mask]`` means coloring ``piece`` with
        ``c`` clashes with ``pieces`` at the slots of ``slot_mask``.

        The per-other-range conflict masks are built once per range
        (:meth:`repro.core.dense.DenseAnalysisIndex.conflict_masks`); a
        probe intersects them with the piece's slot mask and groups the
        surviving bits by occupying piece.  Pieces are listed in
        ascending (first conflicting slot, other-range rank) order --
        the first-occurrence order of a walk over the piece's sorted
        ``(slot, other)`` conflict pairs.
        """
        an = self.analysis
        dense: Any = an.dense
        reg = piece.reg
        masks = dense.conflict_masks(reg)
        if not masks:
            return {}
        whole = len(piece.slots) == len(an.slots[reg])
        pmask = None if whole else mask_of_slots(piece.slots)
        rank = dense.dmap.index
        pieces = self.pieces
        assign = self._assign
        counts = self._piece_count
        entries: List[Tuple[int, int, int, Piece]] = []
        for other_reg, m in masks.items():
            if pmask is not None:
                m &= pmask
                if not m:
                    continue
            oidx = rank[other_reg]
            om = assign[other_reg]
            if counts.get(other_reg, 0) <= 1:
                low = m & -m
                entries.append(
                    (low.bit_length() - 1, oidx, m, pieces[om[low.bit_length() - 1]])
                )
            else:
                # Split other range: group its conflict slots by piece.
                groups: Dict[int, List[int]] = {}
                while m:
                    low = m & -m
                    m ^= low
                    pid = om[low.bit_length() - 1]
                    g = groups.get(pid)
                    if g is None:
                        groups[pid] = [low.bit_length() - 1, low]
                    else:
                        g[1] |= low
                for pid, (first, gm) in groups.items():
                    entries.append((first, oidx, gm, pieces[pid]))
        entries.sort(key=lambda e: (e[0], e[1]))
        by_color: Dict[int, ProfileEntry] = {}
        for _, _, gm, other in entries:
            entry = by_color.get(other.color)
            if entry is None:
                entry = [[], 0]
                by_color[other.color] = entry
            entry[0].append(other)
            entry[1] |= gm
        return by_color

    def conflicts_with_color(
        self, piece: Piece, color: int
    ) -> List[Tuple[Piece, int]]:
        """Pieces that clash with ``piece`` if it were colored ``color``.

        Returns ``(other_piece, slot)`` pairs, one entry per conflicting
        piece (the slot is one witness).  Built from pointwise
        :meth:`~repro.core.analysis.ThreadAnalysis.interferes_at` probes
        over the occupants: the oracle the tests check the mask queries
        against.  The allocator does not call it.
        """
        seen: Set[int] = set()
        out: List[Tuple[Piece, int]] = []
        an = self.analysis
        for s in sorted(piece.slots):
            for other_reg in an.occupants.get(s, ()):
                if other_reg == piece.reg:
                    continue
                other = self.pieces[self._assign[other_reg][s]]
                if other.pid in seen or other.color != color:
                    continue
                if an.interferes_at(piece.reg, other_reg, s):
                    seen.add(other.pid)
                    out.append((other, s))
        return out

    def conflicts_any(self, piece: Piece, color: int) -> bool:
        """Would coloring ``piece`` with ``color`` clash with anything?

        The allocator's yes/no probe: it scans the per-range conflict
        masks and stops at the first clashing piece.
        """
        return any(
            other.color == color for other in self._dense_conflicting(piece)
        )

    def colors_in_conflict(self, piece: Piece) -> Set[int]:
        """All colors used by pieces truly conflicting with ``piece``.

        The key set of :meth:`conflict_profile`, for callers that only
        test membership: collected straight from the conflict masks,
        with no entry lists and no sort.
        """
        return {other.color for other in self._dense_conflicting(piece)}

    def _dense_conflicting(self, piece: Piece) -> Iterator[Piece]:
        """Walk ``piece``'s per-range conflict masks, yielding the
        conflicting pieces: once per unsplit other range, once per
        conflicting slot of a split one (repeats allowed)."""
        an = self.analysis
        reg = piece.reg
        masks = an.dense.conflict_masks(reg)  # type: ignore[attr-defined]
        whole = len(piece.slots) == len(an.slots[reg])
        pmask = None if whole else mask_of_slots(piece.slots)
        pieces = self.pieces
        assign = self._assign
        counts = self._piece_count
        for other_reg, m in masks.items():
            if pmask is not None:
                m &= pmask
                if not m:
                    continue
            om = assign[other_reg]
            if counts.get(other_reg, 0) <= 1:
                yield pieces[om[(m & -m).bit_length() - 1]]
            else:
                while m:
                    low = m & -m
                    m ^= low
                    yield pieces[om[low.bit_length() - 1]]

    # ------------------------------------------------------------------
    # Cost.
    # ------------------------------------------------------------------
    def move_cost(self) -> int:
        """Number of ``mov`` instructions this context requires: one per
        flow edge whose endpoints live in pieces of different colors.

        Only variables split into several pieces can contribute.
        """
        cost = 0
        for reg in self.multi_piece_regs:
            m = self._assign[reg]
            pieces = self.pieces
            for i, j in self.analysis.flow_edges.get(reg, ()):
                if pieces[m[i]].color != pieces[m[j]].color:
                    cost += 1
        return cost

    def crossing_edges(self) -> List[Tuple[Reg, int, int]]:
        """The flow edges that need a materialized move: ``(reg, i, j)``."""
        out: List[Tuple[Reg, int, int]] = []
        for reg in sorted(self.multi_piece_regs, key=str):
            m = self._assign[reg]
            for i, j in self.analysis.flow_edges.get(reg, ()):
                if self.pieces[m[i]].color != self.pieces[m[j]].color:
                    out.append((reg, i, j))
        return out

    # ------------------------------------------------------------------
    # Splitting primitive.
    # ------------------------------------------------------------------
    def split_piece(
        self, piece: Piece, part: FrozenSet[int], color: int
    ) -> Piece:
        """Carve ``part`` out of ``piece`` into a new piece with ``color``.

        ``part`` must be a non-empty proper subset of the piece's slots.
        Returns the new piece; the original keeps the remaining slots.
        """
        if not part or not part < piece.slots:
            raise AllocationError(
                f"split of piece {piece.pid} ({piece.reg}) must take a "
                f"non-empty proper subset of its slots"
            )
        piece.slots = piece.slots - part
        return self.new_piece(piece.reg, part, color)

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every invariant; raise :class:`AllocationError` on failure.

        * every occupied slot of every range belongs to exactly one piece;
        * colors fit the palette; boundary pieces use private colors;
        * no two truly-conflicting pieces share a color.

        The last invariant is checked on masks (:meth:`_colors_clash`).
        The per-pair slot index (:meth:`ThreadAnalysis.conflict_pairs`)
        is read only to word a clash.
        """
        an = self.analysis
        for reg, slots in an.slots.items():
            m = self._assign.get(reg, {})
            for s in slots:
                if s not in m:
                    raise AllocationError(f"{reg} slot {s} unassigned")
        for piece in self.all_pieces():
            if not 0 <= piece.color < self.r:
                raise AllocationError(
                    f"piece {piece.pid} ({piece.reg}) color {piece.color} "
                    f"outside palette [0, {self.r})"
                )
            if self.is_boundary(piece) and piece.color >= self.pr:
                raise AllocationError(
                    f"boundary piece {piece.pid} ({piece.reg}) uses shared "
                    f"color {piece.color} (pr={self.pr})"
                )
        if not self._colors_clash():
            return
        # Word the clash as the first pair, in conflict_pairs() order,
        # whose pieces share a color at a conflicting slot.  When
        # neither range of a pair is split, every conflicting slot
        # compares the same two pieces, so its first slot stands for
        # them all.
        pieces = self.pieces
        counts = self._piece_count
        assign = self._assign
        for (a, b), cslots in an.conflict_pairs().items():
            ma = assign.get(a)
            mb = assign.get(b)
            if ma is None or mb is None:
                continue  # no slots: vacuously checked by the first loop
            if counts.get(a, 0) == 1 and counts.get(b, 0) == 1:
                cslots = cslots[:1]
            for s in cslots:
                pa = pieces[ma[s]]
                pb = pieces[mb[s]]
                if pa.color == pb.color:
                    raise AllocationError(
                        f"{a} and {b} conflict at slot {s} but share "
                        f"color {pa.color}"
                    )

    def _colors_clash(self) -> bool:
        """Do two truly-conflicting pieces share a color?

        Per color, the mask of the ranges using it, ANDed with a range's
        neighbour mask (:meth:`ThreadAnalysis.conflict_neighbors`), gives
        the candidates: the ranges that conflict with it somewhere and
        use that color somewhere.  Two unsplit ranges clash outright.  A
        pair with a split side clashes where its conflict slots
        (:meth:`repro.core.dense.DenseAnalysisIndex.conflict_masks`)
        meet the slots where both ranges use the color; only that case
        reads the per-range conflict masks.
        """
        rank, nbr = self.analysis.conflict_neighbors()
        dense: Any = self.analysis.dense
        regs = dense.dmap.regs
        pieces = self.pieces
        counts = self._piece_count
        users: Dict[int, int] = {}
        # split range rank -> color -> the slots of its pieces of that color
        colored: Dict[int, Dict[int, int]] = {}
        for p in pieces.values():
            ai = rank[p.reg]
            users[p.color] = users.get(p.color, 0) | (1 << ai)
            if counts[p.reg] > 1:
                by_color = colored.setdefault(ai, {})
                by_color[p.color] = by_color.get(p.color, 0) | mask_of_slots(
                    p.slots
                )
        for p in pieces.values():
            candidates = nbr[rank[p.reg]] & users[p.color]
            if not candidates or counts[p.reg] > 1:
                continue
            for bi in bit_indices(candidates):
                theirs = colored.get(bi)
                if theirs is None:
                    return True
                masks = dense.conflict_masks(regs[bi])
                if masks[p.reg] & theirs[p.color]:
                    return True
        for ai, mine in colored.items():
            for color, slots in mine.items():
                for bi in bit_indices(nbr[ai] & users[color]):
                    theirs = colored.get(bi)
                    # An unsplit candidate was checked above; a pair of
                    # split ranges is checked from its lower rank.
                    if theirs is None or bi < ai:
                        continue
                    masks = dense.conflict_masks(regs[ai])
                    if masks[regs[bi]] & slots & theirs.get(color, 0):
                        return True
        return False


def initial_context(
    analysis: ThreadAnalysis,
    coloring: Dict[Reg, int],
    pr: int,
    sr: int,
) -> AllocContext:
    """Build the unsplit context from an estimation coloring.

    Every live range becomes a single piece covering all its slots, colored
    per ``coloring``.  The context is validated before being returned.

    ``analysis`` must come from :func:`~repro.core.analysis.analyze_thread`
    (directly or through the analysis cache): every conflict query of
    the context reads its :class:`~repro.core.dense.DenseAnalysisIndex`.
    """
    ctx = AllocContext(analysis, pr, sr)
    for reg in analysis.all_regs:
        ctx.new_piece(reg, analysis.slots[reg], coloring[reg])
    ctx.validate()
    return ctx

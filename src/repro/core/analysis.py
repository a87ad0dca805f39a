"""Per-thread analysis bundle: the slot/flow-edge model of live ranges.

Everything the intra-thread allocator needs to split and recolor live
ranges is precomputed here, once per thread:

* **slots** -- a live range *occupies* instruction slot ``i`` when it is
  live into ``i`` or defined at ``i``.  Pieces of a split live range are
  sets of slots.
* **flow edges** -- for a live range ``v``, a control-flow edge ``(i, j)``
  *carries* ``v`` when ``i`` and ``j`` are both occupied and ``v`` is live
  into ``j``.  A piece change across a carrying edge costs one ``mov``.
* **slot occupancy** -- which ranges occupy each slot, used for piece
  interference.  Two pieces of different ranges interfere when they
  co-occupy a slot, *except* the def-vs-dying-use pair: a range defined at
  ``i`` does not interfere with a range whose last use is at ``i`` (the
  read happens before the write, so they may share a register).
* **CSB facts** -- which ranges are live across which CSBs; a piece holding
  a range at a CSB slot it is live across must sit in a private register.

Two builders produce the bundle.  :func:`analyze_thread` runs the dense
kernels and attaches the :class:`~repro.core.dense.DenseAnalysisIndex`
whose masks the allocator, the bounds and the baseline's standalone
count read.  :func:`analyze_thread_reference` runs the set-based kernels
and stores the conflict relation as ``(slot, other)`` pairs; it is the
oracle the differential tests and ``repro bench analysis`` compare
against, never an input to the allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Set, Tuple

from repro.cfg.liveness import (
    Liveness,
    compute_liveness,
    compute_liveness_reference,
)
from repro.cfg.nsr import NsrInfo, compute_nsr
from repro.cfg.webs import rename_webs, rename_webs_reference
from repro.igraph.graph import bit_indices
from repro.igraph.interference import InterferenceGraphs, build_interference
from repro.ir.operands import Reg
from repro.ir.program import Program


def true_conflict(
    a: Reg, b: Reg, defs: FrozenSet[Reg], dying: FrozenSet[Reg]
) -> bool:
    """Do co-occupants ``a`` and ``b`` of one slot truly conflict?

    The single definition of the def-vs-dying-use exception, shared by
    :meth:`ThreadAnalysis.interferes_at`, the reference ``conflicts_at``
    builder below, and (as mask formulas checked against this predicate
    by the tests) the bitset kernel in :mod:`repro.core.dense` -- so the
    implementations cannot drift.

    ``defs``/``dying`` are the slot's def and dying-use sets.  The only
    co-occupancy that is not a conflict is a def against a range dying at
    the same instruction (read-before-write); simultaneous writes always
    conflict.
    """
    if a == b:
        return False
    if a in defs and b in defs:
        return True
    if a in defs and b in dying:
        return False
    if b in defs and a in dying:
        return False
    return True


@dataclass
class ThreadAnalysis:
    """All static facts about one thread's program.

    Attributes:
        program: the analysed (virtual-register) program.
        liveness: per-instruction liveness.
        nsr: non-switch regions and boundary/internal classification.
        graphs: GIG / BIG / IIGs.
        slots: live range -> occupied instruction slots.
        flow_edges: live range -> carrying control-flow edges ``(i, j)``.
        occupants: slot -> ranges occupying it (sorted for determinism).
        live_across: CSB index -> ranges live across it.
        csb_slots_of: live range -> CSB slots it is live across
            (program entry is represented by slot ``-1`` when the range is
            live at entry).
        defs_at: slot -> ranges defined there (several for burst loads).
        dying_at: slot -> ranges whose last use is at that slot.
    """

    program: Program
    liveness: Liveness
    nsr: NsrInfo
    graphs: InterferenceGraphs
    slots: Dict[Reg, FrozenSet[int]]
    flow_edges: Dict[Reg, Tuple[Tuple[int, int], ...]]
    occupants: Dict[int, Tuple[Reg, ...]]
    live_across: Dict[int, FrozenSet[Reg]]
    csb_slots_of: Dict[Reg, FrozenSet[int]]
    defs_at: Dict[int, FrozenSet[Reg]]
    dying_at: Dict[int, FrozenSet[Reg]]
    #: Per range: every (slot, other_range) pair that truly conflicts.
    #: Stored by reference-built analyses only; a dense-built one holds
    #: the relation as masks (``dense``) and leaves this ``None``.  Read
    #: it for either kind through :meth:`conflict_lists`.
    conflicts_at: Dict[Reg, Tuple[Tuple[int, "Reg"], ...]] = None  # type: ignore[assignment]
    #: Lazy per-pair slot index of the conflict masks (see
    #: :meth:`conflict_pairs`); never compared or printed.
    _conflict_pair_index: Dict[
        Tuple["Reg", "Reg"], Tuple[int, ...]
    ] = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    #: Bitmask companion built by the dense kernels
    #: (:class:`repro.core.dense.DenseAnalysisIndex`); ``None`` for
    #: reference-built analyses.  Never compared or printed -- the
    #: comparable fields above are bit-identical across implementations.
    #: :meth:`conflict_pairs`, :meth:`conflict_neighbors` and the
    #: allocator read the conflict relation only from here.
    dense: object = field(default=None, repr=False, compare=False)

    @property
    def all_regs(self) -> List[Reg]:
        return sorted(self.slots, key=str)

    def conflict_lists(self) -> Dict[Reg, Tuple[Tuple[int, "Reg"], ...]]:
        """Per range, every ``(slot, other)`` pair that truly conflicts,
        sorted by slot, then by ``str`` of the other range.

        A reference-built analysis returns its stored ``conflicts_at``.
        A dense-built one derives the same pairs, order included, from
        its masks on every call and keeps none of them
        (:meth:`repro.core.dense.DenseAnalysisIndex.conflict_lists`): the
        tests and the analysis digest read it, the allocator does not.
        """
        if self.dense is None:
            return self.conflicts_at
        return self.dense.conflict_lists()  # type: ignore[attr-defined]

    def conflict_pairs(self) -> Dict[Tuple["Reg", "Reg"], Tuple[int, ...]]:
        """Each unordered conflicting range pair once, with its slots.

        Keys are ``(a, b)`` with ``str(a) < str(b)``; each value is the
        ascending slot list where the pair truly conflicts, read off the
        conflict masks.  Built on first use and cached -- validation
        reads it only to word a clash.
        """
        index = self._conflict_pair_index
        if index is None:
            dense: Any = self.dense
            regs = dense.dmap.regs
            index = {
                (a, regs[bi]): tuple(bit_indices(m))
                for ai, a in enumerate(regs)
                for bi, m in dense.relation(ai)
                if bi > ai
            }
            self._conflict_pair_index = index
        return index

    def conflict_neighbors(self) -> Tuple[Dict["Reg", int], List[int]]:
        """Each range's conflict neighbours, as bitmasks over ranks.

        Returns ``(rank, masks)``: ``rank`` numbers the ranges in
        ``str`` order (the dense renumbering), and bit ``rank[b]`` of
        ``masks[rank[a]]`` is set when ``a`` and ``b`` truly conflict
        at some slot -- the pairs of :meth:`conflict_pairs` without
        their slots, answered from the index's memo.
        """
        dense: Any = self.dense
        return dense.dmap.index, dense.conflict_neighbor_masks()

    def interferes_at(self, a: Reg, b: Reg, slot: int) -> bool:
        """Do ranges ``a`` and ``b`` truly conflict at ``slot``?

        Both are assumed to occupy ``slot``.  See :func:`true_conflict`
        for the def-vs-dying-use exception rule.
        """
        return true_conflict(
            a,
            b,
            self.defs_at.get(slot, frozenset()),
            self.dying_at.get(slot, frozenset()),
        )

    def nsr_of_slot(self, slot: int) -> int:
        """NSR id of a non-CSB slot; -1 for CSB slots."""
        rid = self.nsr.nsr_of[slot]
        return -1 if rid is None else rid


def analyze_thread(program: Program) -> ThreadAnalysis:
    """Compute the full analysis bundle for one thread.

    The program is first *web-renamed* (:mod:`repro.cfg.webs`) so every
    live range is one variable, the representation the paper assumes; all
    downstream artifacts (contexts, rewritten code) refer to the renamed
    program available as ``analysis.program``.

    Built by the bitset kernels of :mod:`repro.core.dense`: the
    liveness carries a bitmask payload and the bundle is finished from
    it.  :func:`analyze_thread_reference` builds the bit-identical
    analysis, iteration orders included, from the set-based kernels.
    """
    program = rename_webs(program)
    return _finish_analysis(program, compute_liveness(program))


def analyze_thread_reference(program: Program) -> ThreadAnalysis:
    """Set-based :func:`analyze_thread`: the oracle of the analysis
    differential tests and of ``repro bench analysis``.

    Its analyses store ``conflicts_at`` and carry no
    :class:`~repro.core.dense.DenseAnalysisIndex`, so the allocator,
    :func:`~repro.core.bounds.estimate_bounds` and the baseline's
    standalone count do not take them.
    """
    program = rename_webs_reference(program)
    return _finish_analysis(program, compute_liveness_reference(program))


def _finish_analysis(program: Program, liveness: Liveness) -> ThreadAnalysis:
    """The bundle after liveness, built by the kernels that built it."""
    nsr = compute_nsr(liveness)
    graphs = build_interference(liveness, nsr)
    if liveness._dense is not None:
        from repro.core.dense import finish_analysis_dense

        return finish_analysis_dense(program, liveness, nsr, graphs)
    n = len(program.instrs)

    slots: Dict[Reg, Set[int]] = {}
    for i, instr in enumerate(program.instrs):
        for reg in liveness.live_in[i]:
            slots.setdefault(reg, set()).add(i)
        for reg in instr.defs:
            slots.setdefault(reg, set()).add(i)
        for reg in instr.uses:
            slots.setdefault(reg, set())  # dead-use safety: still a node

    flow_edges: Dict[Reg, List[Tuple[int, int]]] = {r: [] for r in slots}
    for i in range(n):
        for j in program.successors(i):
            for reg in liveness.live_in[j]:
                if i in slots.get(reg, ()):
                    flow_edges[reg].append((i, j))

    occupants: Dict[int, List[Reg]] = {}
    for reg, ss in slots.items():
        for s in ss:
            occupants.setdefault(s, []).append(reg)

    live_across: Dict[int, FrozenSet[Reg]] = {
        c: liveness.live_across_csb(c) for c in nsr.csbs
    }
    csb_slots_of: Dict[Reg, Set[int]] = {r: set() for r in slots}
    for c, regs in live_across.items():
        for reg in regs:
            csb_slots_of[reg].add(c)
    for reg in liveness.entry_live():
        csb_slots_of[reg].add(-1)

    defs_at: Dict[int, FrozenSet[Reg]] = {}
    for i, instr in enumerate(program.instrs):
        if instr.defs:
            defs_at[i] = frozenset(instr.defs)

    dying_at: Dict[int, Set[Reg]] = {}
    for i, instr in enumerate(program.instrs):
        for reg in instr.uses:
            if reg not in liveness.live_out[i]:
                dying_at.setdefault(i, set()).add(reg)

    empty: FrozenSet[Reg] = frozenset()
    conflicts_at: Dict[Reg, List[Tuple[int, Reg]]] = {r: [] for r in slots}
    for s, occ in occupants.items():
        defs = defs_at.get(s, empty)
        dying = dying_at.get(s, empty)
        for a in occ:
            for b in occ:
                if true_conflict(a, b, defs, dying):
                    conflicts_at[a].append((s, b))

    return ThreadAnalysis(
        program=program,
        liveness=liveness,
        nsr=nsr,
        graphs=graphs,
        slots={r: frozenset(s) for r, s in slots.items()},
        flow_edges={r: tuple(sorted(e)) for r, e in flow_edges.items()},
        occupants={
            s: tuple(sorted(rs, key=str)) for s, rs in occupants.items()
        },
        live_across=live_across,
        csb_slots_of={r: frozenset(s) for r, s in csb_slots_of.items()},
        defs_at=defs_at,
        dying_at={s: frozenset(rs) for s, rs in dying_at.items()},
        conflicts_at={
            r: tuple(sorted(pairs, key=lambda p: (p[0], str(p[1]))))
            for r, pairs in conflicts_at.items()
        },
    )

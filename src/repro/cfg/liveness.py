"""Per-instruction liveness analysis and register-pressure metrics.

The classic backward dataflow::

    live_out[i] = union of live_in[s] over successors s of i
    live_in[i]  = (live_out[i] - defs[i]) | uses[i]

computed with an instruction-level worklist.  Programs here are small
(hundreds of instructions), so instruction granularity keeps every later
consumer simple: the interference builder, the NSR classifier and the
splitting passes all ask liveness questions at single program points.

Pressure metrics defined by the paper (section 5):

* ``RegPmax``     -- the maximum number of co-live ranges at any program
  point; the paper's lower bound ``MinR``.
* ``RegPCSBmax``  -- the maximum number of ranges live *across* any
  context-switch boundary; the paper's lower bound ``MinPR``.

"Live across" a CSB instruction means live after it completes and not
defined by it: ``live_out(csb) - defs(csb)``.  A ``load`` destination is
*not* live across its own CSB -- on the IXP the data lands in a transfer
register and only reaches the GPR when the thread resumes (footnote 3 of
the paper).

Two implementations compute the same facts.  :func:`compute_liveness`
runs the bitset kernel in :mod:`repro.core.dense` (``live_in``/
``live_out`` as big-int masks, frozensets materialized only at this API
boundary) and attaches its mask payload as ``Liveness._dense``, which
downstream passes key off so one analysis never mixes implementations.
:func:`compute_liveness_reference` is the set-based worklist, called by
name where the dense kernels must not be trusted (the verifier, the
analysis cache's fallback, the differential tests).  Results are
bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ir.operands import Reg
from repro.ir.program import Program


@dataclass
class Liveness:
    """Liveness facts for one program.

    Attributes:
        program: the analysed program (not copied; do not mutate while
            this object is in use).
        live_in: per-instruction set of registers live just before it.
        live_out: per-instruction set of registers live just after it.
        def_sets: per-instruction def sets, precomputed once so the hot
            ``live_across_csb`` query never rebuilds a frozenset.
    """

    program: Program
    live_in: List[FrozenSet[Reg]]
    live_out: List[FrozenSet[Reg]]
    def_sets: Optional[List[FrozenSet[Reg]]] = field(
        default=None, repr=False, compare=False
    )
    #: Bitmask payload attached by the dense kernels
    #: (:class:`repro.core.dense.DenseLiveness`); downstream passes key
    #: off its presence.  Never compared or printed.
    _dense: Optional[object] = field(default=None, repr=False, compare=False)

    def live_across_csb(self, index: int) -> FrozenSet[Reg]:
        """Registers live across the CSB instruction at ``index``."""
        instr = self.program.instrs[index]
        if not instr.is_csb:
            raise ValueError(f"instruction {index} ({instr.opcode}) is not a CSB")
        # getattr: objects unpickled from pre-def_sets disk caches lack
        # the attribute entirely.
        def_sets = getattr(self, "def_sets", None)
        if def_sets is None:
            def_sets = [frozenset(ins.defs) for ins in self.program.instrs]
            self.def_sets = def_sets
        return self.live_out[index] - def_sets[index]

    def entry_live(self) -> FrozenSet[Reg]:
        """Registers live at program entry (expected values from outside)."""
        return self.live_in[0] if self.live_in else frozenset()

    def csb_indices(self) -> List[int]:
        """Indices of all context-switch-boundary instructions."""
        return [
            i for i, instr in enumerate(self.program.instrs) if instr.is_csb
        ]

    def pressure_at(self, index: int) -> int:
        """Co-live register count at instruction ``index``: the larger of
        the point just before it and the point just after it.  Dead defs
        still occupy a register at the write, so they count after."""
        after = self.live_out[index] | frozenset(
            self.program.instrs[index].defs
        )
        return max(len(self.live_in[index]), len(after))

    def reg_p_max(self) -> int:
        """``RegPmax``: the paper's lower bound on ``R``."""
        if not self.program.instrs:
            return 0
        return max(self.pressure_at(i) for i in range(len(self.program.instrs)))

    def reg_p_csb_max(self) -> int:
        """``RegPCSBmax``: the paper's lower bound on ``PR``.

        Registers live at program entry also demand private registers
        (nothing has initialised them while other threads ran), so the
        entry point counts as one more boundary.
        """
        counts = [len(self.live_across_csb(i)) for i in self.csb_indices()]
        counts.append(len(self.entry_live()))
        return max(counts) if counts else 0


def compute_liveness(program: Program) -> Liveness:
    """Liveness of ``program`` by the bitset fixpoint.

    Bit-identical to :func:`compute_liveness_reference`; the result
    carries the dense mask payload (see :mod:`repro.core.dense`).
    """
    from repro.core.dense import compute_liveness_dense

    return compute_liveness_dense(program)


def compute_liveness_reference(program: Program) -> Liveness:
    """Run the set-based backward worklist analysis over ``program``.

    The reference implementation; checks that must not trust the dense
    kernels call it directly.
    """
    n = len(program.instrs)
    defs: List[FrozenSet[Reg]] = []
    uses: List[FrozenSet[Reg]] = []
    for instr in program.instrs:
        defs.append(frozenset(instr.defs))
        uses.append(frozenset(instr.uses))

    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for s in program.successors(i):
            preds[s].append(i)

    live_in: List[FrozenSet[Reg]] = [frozenset()] * n
    live_out: List[FrozenSet[Reg]] = [frozenset()] * n
    worklist = list(range(n))
    in_list = [True] * n
    while worklist:
        i = worklist.pop()
        in_list[i] = False
        out: FrozenSet[Reg] = frozenset()
        for s in program.successors(i):
            out |= live_in[s]
        new_in = (out - defs[i]) | uses[i]
        live_out[i] = out
        if new_in != live_in[i]:
            live_in[i] = new_in
            for p in preds[i]:
                if not in_list[p]:
                    in_list[p] = True
                    worklist.append(p)
    return Liveness(
        program=program, live_in=live_in, live_out=live_out, def_sets=defs
    )


def occupied_slots(liveness: Liveness, reg: Reg) -> FrozenSet[int]:
    """The *slots* a register occupies: every instruction index where it is
    live-in, plus every index where it is defined.

    Slots are the granularity at which live ranges are split: a piece of a
    live range is a subset of its slots, and a move is required on every
    control-flow edge between slots assigned to different pieces.
    """
    dense = getattr(liveness, "_dense", None)
    if dense is not None:
        return dense.occupied_frozen(reg)
    out: Set[int] = set()
    for i in range(len(liveness.program.instrs)):
        if reg in liveness.live_in[i] or reg in liveness.program.instrs[i].defs:
            out.add(i)
    return frozenset(out)


def co_live_pairs(liveness: Liveness) -> Set[Tuple[Reg, Reg]]:
    """All unordered register pairs co-live at some program point.

    For programs that pass validation (every live register is defined on
    every path) the relation is exactly: a def interferes with everything
    in its instruction's live-out set, plus the pairwise clique of
    registers live at program entry (those have no visible def).  A
    ``mov d, s`` where ``s`` dies at the move does *not* make ``d`` and
    ``s`` interfere, which is what lets live-range splitting reduce the
    chromatic number.
    """
    pairs: Set[Tuple[Reg, Reg]] = set()

    def add(a: Reg, b: Reg) -> None:
        if a != b:
            pairs.add((a, b) if str(a) <= str(b) else (b, a))

    entry = sorted(liveness.entry_live(), key=str)
    for x in range(len(entry)):
        for y in range(x + 1, len(entry)):
            add(entry[x], entry[y])
    for i, instr in enumerate(liveness.program.instrs):
        out = liveness.live_out[i]
        for d in instr.defs:
            for v in out:
                add(d, v)
        # Simultaneous writes (burst loads) need pairwise-distinct
        # registers even when some results are dead.
        defs = instr.defs
        for x in range(len(defs)):
            for y in range(x + 1, len(defs)):
                add(defs[x], defs[y])
    return pairs

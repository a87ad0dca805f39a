"""Non-switch regions (NSRs) and boundary/internal live-range classification.

Section 3.1 of the paper: an NSR is a maximal connected subgraph of the CFG
with no internal context-switch instruction; its boundaries are CSB
instructions and the program entry/exit.  We compute NSRs at instruction
granularity as the connected components of the control-flow graph after
deleting the CSB instructions themselves (CSB instructions sit *on* the
boundary and belong to no NSR).  Connectivity is undirected, matching the
"connected subgraph" wording -- two halves of a basic block separated by a
CSB can still share an NSR through a loop (paper Figure 4, BB7).

Classification (section 3.2):

* a **boundary node** is a live range live across some CSB (or live at
  program entry -- the thread expects the value to survive other threads'
  execution before its first instruction runs);
* an **internal node** is any other live range; every internal node's
  occupied slots fall inside exactly one NSR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfg.liveness import Liveness, occupied_slots
from repro.ir.operands import Reg
from repro.ir.program import Program


@dataclass
class NsrInfo:
    """Result of NSR construction for one program.

    Attributes:
        program: the analysed program.
        nsr_of: per-instruction NSR id; ``None`` for CSB instructions.
        regions: for each NSR id, the set of member instruction indices.
        csbs: indices of all CSB instructions, ascending.
        boundary: the boundary live ranges (registers).
        internal: the internal live ranges.
        nsr_of_internal: internal register -> the single NSR containing it.
    """

    program: Program
    nsr_of: List[Optional[int]]
    regions: List[FrozenSet[int]]
    csbs: List[int]
    boundary: FrozenSet[Reg]
    internal: FrozenSet[Reg]
    nsr_of_internal: Dict[Reg, int]

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def average_region_size(self) -> float:
        """Average NSR size in instructions (0.0 for a CSB-free program)."""
        if not self.regions:
            return 0.0
        return sum(len(r) for r in self.regions) / len(self.regions)


def compute_nsr(liveness: Liveness) -> NsrInfo:
    """Build NSRs and classify every live range of the program."""
    program = liveness.program
    n = len(program.instrs)
    csbs = liveness.csb_indices()
    is_csb = [False] * n
    for i in csbs:
        is_csb[i] = True

    # Undirected adjacency among non-CSB instructions.
    adj: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        if is_csb[i]:
            continue
        for s in program.successors(i):
            if not is_csb[s]:
                adj[i].append(s)
                adj[s].append(i)

    nsr_of: List[Optional[int]] = [None] * n
    regions: List[FrozenSet[int]] = []
    for i in range(n):
        if is_csb[i] or nsr_of[i] is not None:
            continue
        rid = len(regions)
        stack = [i]
        members: Set[int] = set()
        nsr_of[i] = rid
        while stack:
            cur = stack.pop()
            members.add(cur)
            for nxt in adj[cur]:
                if nsr_of[nxt] is None:
                    nsr_of[nxt] = rid
                    stack.append(nxt)
        regions.append(frozenset(members))

    boundary: Set[Reg] = set(liveness.entry_live())
    for c in csbs:
        boundary |= liveness.live_across_csb(c)

    all_regs: Set[Reg] = set()
    for instr in program.instrs:
        all_regs.update(instr.regs)
    internal = {r for r in all_regs if r not in boundary}

    nsr_of_internal: Dict[Reg, int] = {}
    for reg in internal:
        rids = {
            nsr_of[s]
            for s in occupied_slots(liveness, reg)
            if nsr_of[s] is not None
        }
        if len(rids) > 1:
            # Cannot happen for a truly internal range: crossing between
            # NSRs requires passing through a CSB, i.e. being live across
            # it.  Guard anyway so a logic bug surfaces loudly.
            raise AssertionError(
                f"internal live range {reg} spans NSRs {sorted(rids)}"
            )
        if rids:
            nsr_of_internal[reg] = next(iter(rids))
        else:
            # Range occupies only CSB slots (defined by a CSB and used by
            # the next CSB with nothing in between, or a dead def).  Park
            # it in the region of the nearest following instruction, or 0.
            slot = min(occupied_slots(liveness, reg), default=0)
            rid_fallback = next(
                (nsr_of[s] for s in range(slot, len(nsr_of)) if nsr_of[s] is not None),
                0,
            )
            nsr_of_internal[reg] = rid_fallback

    return NsrInfo(
        program=program,
        nsr_of=nsr_of,
        regions=regions,
        csbs=csbs,
        boundary=frozenset(boundary),
        internal=frozenset(internal),
        nsr_of_internal=nsr_of_internal,
    )

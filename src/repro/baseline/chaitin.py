"""Chaitin-style graph-coloring register allocation with spilling.

The classic loop [Chaitin 1982]:

1. build the interference graph over virtual registers;
2. **simplify**: repeatedly remove nodes of degree < K; when none exists,
   remove the node with the smallest spill priority
   (``occurrences / degree``) as a *potential spill*;
3. **select**: pop the stack, assigning each node a color unused by its
   colored neighbors; a potential spill that finds no color becomes an
   *actual spill*;
4. insert spill code for actual spills and restart.

Spill code matches how IXP microcode must address memory (the address
travels in a register)::

    movi %sp.addr, <slot>         ; 1 cycle
    load %v.u7, [%sp.addr]        ; ~20 cycles, relinquishes the PU

so every reload/writeback is a context-switch boundary -- the property
Table 3 of the paper exploits.  Each spilled value gets a dedicated slot
in a per-thread spill area.

The graph is built and colored on masks: :func:`_build_graph` is the dense
liveness (:func:`~repro.core.dense.liveness_masks`) and the GIG adjacency
the analysis uses (:func:`~repro.core.dense.gig_adjacency`), and
:func:`_simplify_select` keeps degrees in an array, the trivially
colorable nodes and the colored nodes in masks.  Ranks follow ``str``
order, so every choice equals the set-based loop over
``co_live_pairs`` and an ``UndirectedGraph`` that it replaces, which
``tests/test_baseline_chaitin.py`` keeps as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cfg.edit import ProgramEditor
from repro.core.dense import gig_adjacency, liveness_masks
from repro.errors import AllocationError
from repro.igraph.graph import bit_indices, lowest_clear_bit, popcount
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, PhysReg, Reg, VirtualReg
from repro.ir.program import Program

#: Default word address of the spill area (kept clear of packet areas).
DEFAULT_SPILL_BASE = 0x8000

#: Spill rounds before :func:`spill_until_colorable` gives up.
MAX_SPILL_ROUNDS = 64


@dataclass
class ChaitinResult:
    """Outcome of baseline allocation for one thread."""

    program: Program
    colors_used: int
    spilled: List[VirtualReg]
    spill_loads: int
    spill_stores: int
    rounds: int

    @property
    def spill_ops(self) -> int:
        return self.spill_loads + self.spill_stores


#: An interference graph: the registers by rank, and per rank the
#: neighbor mask.
MaskGraph = Tuple[Tuple[Reg, ...], List[int]]


def _build_graph(program: Program) -> MaskGraph:
    dl = liveness_masks(program)
    return dl.dmap.regs, gig_adjacency(dl)


def _occurrences(program: Program) -> Dict[Reg, int]:
    """Loop-depth-weighted access frequency per register.

    An access at nesting depth ``d`` counts ``10**d`` (capped), the
    classic Chaitin spill-cost estimate, so loop-carried values are not
    spilled in favour of straight-line ones.
    """
    from repro.cfg.loops import loop_depth

    depths = loop_depth(program)
    out: Dict[Reg, int] = {}
    for i, instr in enumerate(program.instrs):
        weight = 10 ** min(depths[i], 4)
        for reg in instr.regs:
            out[reg] = out.get(reg, 0) + weight
    return out


def _simplify_select(
    graph: MaskGraph, k: int, occurrences: Dict[Reg, int]
) -> Tuple[Dict[Reg, int], List[Reg]]:
    """One coloring attempt: returns (coloring, actual_spills)."""
    regs, adj = graph
    deg = [popcount(m) for m in adj]
    weight = [occurrences.get(r, 0) for r in regs]
    remaining = (1 << len(regs)) - 1
    # Remaining nodes of degree < k; its lowest bit is the trivial pick.
    trivial = 0
    for i, d in enumerate(deg):
        if d < k:
            trivial |= 1 << i
    stack: List[Tuple[int, bool]] = []  # (rank, is_potential_spill)
    while remaining:
        if trivial:
            bit = trivial & -trivial
            i = bit.bit_length() - 1
            stack.append((i, False))
        else:
            i = min(
                bit_indices(remaining),
                key=lambda x: (weight[x] / max(deg[x], 1), x),
            )
            bit = 1 << i
            stack.append((i, True))
        remaining ^= bit
        trivial &= ~bit
        m = adj[i] & remaining
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            deg[j] -= 1
            if deg[j] == k - 1:
                trivial |= low

    colors = [0] * len(regs)
    colored = 0
    coloring: Dict[Reg, int] = {}
    spills: List[Reg] = []
    for i, potential in reversed(stack):
        used = 0
        m = adj[i] & colored
        while m:
            low = m & -m
            m ^= low
            used |= 1 << colors[low.bit_length() - 1]
        color = lowest_clear_bit(used)
        if color >= k:
            if not potential:
                raise AllocationError(
                    f"non-spill node {regs[i]} failed to color (k={k})"
                )
            spills.append(regs[i])
        else:
            colors[i] = color
            colored |= 1 << i
            coloring[regs[i]] = color
    return coloring, spills


def _insert_spill_code(
    program: Program,
    spills: Sequence[VirtualReg],
    slot_of: Dict[VirtualReg, int],
) -> Tuple[Program, int, int]:
    """Rewrite ``program`` with loads/stores around every spilled access."""
    editor = ProgramEditor(program)
    n_loads = 0
    n_stores = 0
    new_instrs: Dict[int, Instruction] = {}
    spill_set = set(spills)
    for i, instr in enumerate(program.instrs):
        used = [r for r in instr.uses if r in spill_set]
        defined = [r for r in instr.defs if r in spill_set]
        if not used and not defined:
            continue
        mapping: Dict[Reg, Reg] = {}
        pre: List[Instruction] = []
        post: List[Instruction] = []
        for reg in sorted(set(used), key=str):
            tmp = VirtualReg(f"{reg.name}.u{i}")
            addr = VirtualReg(f"{reg.name}.ua{i}")
            pre.append(Instruction(Opcode.MOVI, (addr, Imm(slot_of[reg]))))
            pre.append(Instruction(Opcode.LOAD, (tmp, addr, Imm(0))))
            mapping[reg] = tmp
            n_loads += 1
        for reg in sorted(set(defined), key=str):
            tmp = mapping.get(reg, VirtualReg(f"{reg.name}.d{i}"))
            addr = VirtualReg(f"{reg.name}.da{i}")
            post.append(Instruction(Opcode.MOVI, (addr, Imm(slot_of[reg]))))
            post.append(Instruction(Opcode.STORE, (tmp, addr, Imm(0))))
            mapping[reg] = tmp
            n_stores += 1
        new_instrs[i] = instr.substitute_regs(mapping)
        if pre:
            editor.insert_before(i, pre)
        if post:
            editor.insert_after(i, post)
    # Substitute operands first (indices unchanged), then commit inserts.
    for i, instr in new_instrs.items():
        program.instrs[i] = instr
    return editor.commit(), n_loads, n_stores


def spill_until_colorable(
    program: Program,
    k: int,
    spill_base: int = DEFAULT_SPILL_BASE,
) -> Tuple[Program, Dict[Reg, int], "ChaitinStats"]:
    """Insert spill code until the program is ``k``-colorable, in at most
    :data:`MAX_SPILL_ROUNDS` rounds.

    Returns the (still virtual-register) program, a valid coloring into
    ``[0, k)``, and the spill statistics: the coloring half of
    :func:`chaitin_allocate`.
    """
    current = program.copy()
    all_spilled: List[VirtualReg] = []
    slot_of: Dict[VirtualReg, int] = {}
    next_slot = spill_base
    total_loads = 0
    total_stores = 0
    unspillable: set = set()
    for round_no in range(1, MAX_SPILL_ROUNDS + 1):
        graph = _build_graph(current)
        occurrences = _occurrences(current)
        coloring, spills = _simplify_select(graph, k, occurrences)
        if not spills:
            stats = ChaitinStats(
                spilled=all_spilled,
                spill_loads=total_loads,
                spill_stores=total_stores,
                rounds=round_no,
            )
            return current, coloring, stats
        # Spill temps have atomic live ranges already; re-spilling one
        # means k is below the program's per-instruction register need
        # and no amount of spilling can help.
        fresh = [
            r
            for r in spills
            if isinstance(r, VirtualReg) and r.name not in unspillable
        ]
        if not fresh:
            raise AllocationError(
                f"{program.name}: not colorable with k={k} even after "
                f"spilling everything (an instruction needs more than "
                f"{k} registers at once)"
            )
        for reg in fresh:
            if reg not in slot_of:
                slot_of[reg] = next_slot
                next_slot += 1
            all_spilled.append(reg)
        before = {r.name for r in current.virtual_regs()}
        current, n_loads, n_stores = _insert_spill_code(
            current, fresh, slot_of
        )
        unspillable |= {
            r.name for r in current.virtual_regs() if r.name not in before
        }
        total_loads += n_loads
        total_stores += n_stores
    raise AllocationError(
        f"{program.name}: spilling failed to converge in "
        f"{MAX_SPILL_ROUNDS} rounds"
    )


@dataclass
class ChaitinStats:
    """Spill statistics shared by both entry points."""

    spilled: List[VirtualReg]
    spill_loads: int
    spill_stores: int
    rounds: int


def chaitin_allocate(
    program: Program,
    k: int,
    phys_base: int = 0,
    spill_base: int = DEFAULT_SPILL_BASE,
) -> ChaitinResult:
    """Allocate ``program`` into ``k`` physical registers
    ``$r[phys_base] .. $r[phys_base + k - 1]``, spilling as needed."""
    current, coloring, stats = spill_until_colorable(
        program, k, spill_base=spill_base
    )
    mapping: Dict[Reg, Reg] = {
        reg: PhysReg(phys_base + color) for reg, color in coloring.items()
    }
    out = Program(
        name=current.name,
        instrs=[instr.substitute_regs(mapping) for instr in current.instrs],
        labels=dict(current.labels),
    )
    colors_used = len(set(coloring.values())) if coloring else 0
    return ChaitinResult(
        program=out,
        colors_used=colors_used,
        spilled=stats.spilled,
        spill_loads=stats.spill_loads,
        spill_stores=stats.spill_stores,
        rounds=stats.rounds,
    )

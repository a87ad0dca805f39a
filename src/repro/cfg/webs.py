"""Web renaming: one variable per live range.

The paper assumes "each live range represents one variable" (section 3
footnote).  Source programs routinely reuse a scratch name for many
disconnected def-use chains; such a variable's occupied slots can span
several NSRs even though no single value is live across a CSB, which
breaks the boundary/internal classification.

:func:`rename_webs` splits every virtual register into its *webs* --
maximal def/use groups connected through reaching definitions -- and gives
each web a distinct name (``t``, ``t.w1``, ``t.w2``, ...).  Renaming is
semantics-preserving and idempotent; it runs automatically at the front of
:func:`repro.core.analysis.analyze_thread`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.instruction import Instruction
from repro.ir.operands import Reg, VirtualReg
from repro.ir.program import Program

#: Pseudo def-site index for "value arrives live at program entry".
ENTRY = -1


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _reaching_defs(
    program: Program, var: VirtualReg
) -> List[Set[int]]:
    """Per-instruction sets of ``var`` def sites reaching that point
    (``ENTRY`` stands for "possibly undefined / live-in at entry")."""
    n = len(program.instrs)
    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for s in program.successors(i):
            preds[s].append(i)
    reach_in: List[Set[int]] = [set() for _ in range(n)]
    reach_in[0] = {ENTRY}
    out: List[Set[int]] = [set() for _ in range(n)]

    def transfer(i: int) -> Set[int]:
        if var in program.instrs[i].defs:
            return {i}
        return reach_in[i]

    worklist = list(range(n))
    in_list = [True] * n
    while worklist:
        i = worklist.pop()
        in_list[i] = False
        new_in = set(reach_in[i]) if i == 0 else set()
        if i == 0:
            new_in = {ENTRY}
        for p in preds[i]:
            new_in |= out[p]
        if i == 0:
            new_in.add(ENTRY)
        changed = new_in != reach_in[i]
        reach_in[i] = new_in
        new_out = transfer(i)
        if new_out != out[i] or changed:
            out[i] = new_out
            for s in program.successors(i):
                if not in_list[s]:
                    in_list[s] = True
                    worklist.append(s)
    return reach_in


def _name_and_replace(
    program: Program,
    var: VirtualReg,
    uf: _UnionFind,
    use_webs: Dict[int, int],
    def_sites: List[int],
    use_sites: List[int],
    taken: Set[str],
    replace: Dict[Tuple[int, int], VirtualReg],
) -> None:
    """Assign web names for one variable and record operand replacements.

    Shared tail of both :func:`rename_webs` implementations: given the
    union-find partition and per-use representatives, the naming depends
    only on the partition -- entry web (if used) first, then defs in
    program order.
    """
    roots: List[int] = []
    root_name: Dict[int, VirtualReg] = {}

    def name_for(root: int) -> VirtualReg:
        if root not in root_name:
            if not roots:
                root_name[root] = var  # first web keeps the name
            else:
                k = len(roots)
                candidate = f"{var.name}.w{k}"
                while candidate in taken:
                    k += 1
                    candidate = f"{var.name}.w{k}"
                taken.add(candidate)
                root_name[root] = VirtualReg(candidate)
            roots.append(root)
        return root_name[root]

    if any(uf.find(use_webs[u]) == uf.find(ENTRY) for u in use_sites):
        name_for(uf.find(ENTRY))
    for d in def_sites:
        name_for(uf.find(d))

    # Only the variable's own def/use sites can hold operands to
    # replace, so the scan skips the rest of the program.
    for i in sorted(set(def_sites) | set(use_sites)):
        instr = program.instrs[i]
        sig = instr.spec.signature
        for pos, (role, op) in enumerate(zip(sig, instr.operands)):
            if op != var:
                continue
            if role == "D":
                replace[(i, pos)] = name_for(uf.find(i))
            elif role == "U":
                replace[(i, pos)] = name_for(uf.find(use_webs[i]))


def rename_webs(program: Program) -> Program:
    """Return a copy of ``program`` with every web distinctly named.

    When the dense analysis kernels are the process default (see
    :mod:`repro.core.dense`), reaching definitions run as a bitmask
    fixpoint with all def/use sites gathered in one program sweep; the
    renamed program is identical either way (the web partition and the
    deterministic naming do not depend on how reaching sets are
    represented).
    """
    from repro.core.dense import analysis_is_dense

    if analysis_is_dense():
        return _rename_webs_dense(program)
    return rename_webs_reference(program)


def rename_webs_reference(program: Program) -> Program:
    """Set-based :func:`rename_webs`, whatever the process default is.

    The reference implementation; the analysis fallback that must not
    trust the dense kernels calls it directly.
    """
    variables = sorted(program.virtual_regs(), key=str)
    n = len(program.instrs)
    # occurrence -> replacement, keyed by (instr index, operand position).
    replace: Dict[Tuple[int, int], VirtualReg] = {}
    taken = {v.name for v in variables}

    for var in variables:
        def_sites = [
            i for i, ins in enumerate(program.instrs) if var in ins.defs
        ]
        use_sites = [
            i for i, ins in enumerate(program.instrs) if var in ins.uses
        ]
        if len(def_sites) <= 1 and not use_sites:
            continue
        reach_in = _reaching_defs(program, var)
        uf = _UnionFind()
        for d in def_sites + [ENTRY]:
            uf.find(d)
        # use_webs holds a *representative member* of the use's web; roots
        # move as later unions merge webs, so resolve with uf.find() only
        # at naming time, never here.
        use_webs: Dict[int, int] = {}
        def_site_set = set(def_sites)
        for u in use_sites:
            reaching = [
                d for d in reach_in[u] if d == ENTRY or d in def_site_set
            ]
            defs_only = [d for d in reaching if d != ENTRY]
            if not defs_only:
                use_webs[u] = ENTRY
                continue
            first = defs_only[0]
            for d in defs_only[1:]:
                uf.union(first, d)
            if ENTRY in reaching:
                uf.union(first, ENTRY)
            use_webs[u] = first

        _name_and_replace(
            program, var, uf, use_webs, def_sites, use_sites, taken, replace
        )

    if not replace:
        return program.copy()
    return _apply_replacements(program, replace)


def _apply_replacements(
    program: Program, replace: Dict[Tuple[int, int], VirtualReg]
) -> Program:
    new_instrs: List[Instruction] = []
    for i, instr in enumerate(program.instrs):
        ops = list(instr.operands)
        changed = False
        for pos in range(len(ops)):
            key = (i, pos)
            if key in replace:
                ops[pos] = replace[key]
                changed = True
        new_instrs.append(instr.with_operands(ops) if changed else instr)
    return Program(name=program.name, instrs=new_instrs, labels=dict(program.labels))


def _reaching_defs_dense(
    n: int,
    succs: List[Tuple[int, ...]],
    preds: List[List[int]],
    is_def: List[bool],
) -> List[int]:
    """Bitmask reaching-definitions fixpoint for one variable.

    Bit ``i`` of a mask is "the def at instruction ``i`` reaches here";
    bit ``n`` is the :data:`ENTRY` pseudo-def.  Same worklist shape and
    the same unique least fixpoint as :func:`_reaching_defs`.
    """
    entry_bit = 1 << n
    reach_in = [0] * n
    out = [0] * n
    if n:
        reach_in[0] = entry_bit
        out[0] = 1 if is_def[0] else entry_bit
    worklist = list(range(n))
    in_list = [True] * n
    while worklist:
        i = worklist.pop()
        in_list[i] = False
        new_in = entry_bit if i == 0 else 0
        for p in preds[i]:
            new_in |= out[p]
        changed = new_in != reach_in[i]
        reach_in[i] = new_in
        new_out = (1 << i) if is_def[i] else new_in
        if new_out != out[i] or changed:
            out[i] = new_out
            for s in succs[i]:
                if not in_list[s]:
                    in_list[s] = True
                    worklist.append(s)
    return reach_in


def _rename_webs_dense(program: Program) -> Program:
    """Mask-based :func:`rename_webs`.

    One sweep gathers every variable's def and use sites (the reference
    path re-scans the program per variable, re-deriving operand tuples
    each time), and reaching definitions run over big-int masks.  The
    union-find partition -- and hence the renamed program -- is identical
    to the reference path's: all reaching defs of a use end up unioned,
    so the choice of representative does not matter, and web naming
    depends only on the partition.
    """
    variables = sorted(program.virtual_regs(), key=str)
    n = len(program.instrs)
    instrs = program.instrs
    defs_l = [ins.defs for ins in instrs]
    uses_l = [ins.uses for ins in instrs]
    succs = [program.successors(i) for i in range(n)]
    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for s in succs[i]:
            preds[s].append(i)
    def_sites_of: Dict[Reg, List[int]] = {}
    use_sites_of: Dict[Reg, List[int]] = {}
    for i in range(n):
        for v in set(defs_l[i]):
            def_sites_of.setdefault(v, []).append(i)
        for v in set(uses_l[i]):
            use_sites_of.setdefault(v, []).append(i)

    replace: Dict[Tuple[int, int], VirtualReg] = {}
    taken = {v.name for v in variables}

    for var in variables:
        def_sites = def_sites_of.get(var, [])
        use_sites = use_sites_of.get(var, [])
        if len(def_sites) <= 1 and not use_sites:
            continue
        is_def = [False] * n
        for d in def_sites:
            is_def[d] = True
        reach_in = _reaching_defs_dense(n, succs, preds, is_def)
        entry_bit = 1 << n
        uf = _UnionFind()
        for d in def_sites + [ENTRY]:
            uf.find(d)
        use_webs: Dict[int, int] = {}
        for u in use_sites:
            m = reach_in[u]
            has_entry = bool(m & entry_bit)
            m &= entry_bit - 1  # def-site bits only
            if not m:
                use_webs[u] = ENTRY
                continue
            low = m & -m
            first = low.bit_length() - 1
            m ^= low
            while m:
                low = m & -m
                uf.union(first, low.bit_length() - 1)
                m ^= low
            if has_entry:
                uf.union(first, ENTRY)
            use_webs[u] = first

        _name_and_replace(
            program, var, uf, use_webs, def_sites, use_sites, taken, replace
        )

    if not replace:
        return program.copy()
    return _apply_replacements(program, replace)

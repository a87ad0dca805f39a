"""Dense-index bitset kernels for the cold analysis path.

PR 3 made *warm* allocation cheap by caching whole analyses; this module
makes the cache *miss* cheap.  Every per-program analysis pass -- the
liveness fixpoint, interference-graph construction, and the
slot/occupant/conflict model behind the intra-thread allocator -- has a
rewrite here that renumbers live ranges and instruction slots to
contiguous ints and runs on pure-Python big-int bitmasks instead of sets
of rich operand objects.  No new dependencies: a Python ``int`` is the
bit vector.

The layout invariant everything rests on: :class:`DenseMap` numbers
registers in ``str``-sorted order, so **ascending bit order equals the
``str`` order** the reference implementation sorts by.  Expanding a mask
low-bit-first therefore reproduces every reference iteration order
(occupant tuples, ``conflicts_at`` pair order, tie-breaks in the
coloring heuristics) without ever calling ``sorted``.  That is what
makes the two implementations bit-identical rather than merely
equivalent: same :class:`~repro.core.analysis.ThreadAnalysis` contents,
same allocations, same benchmark JSON.

The dense kernels are the only path an analysis takes:
:func:`~repro.cfg.liveness.compute_liveness`,
:func:`~repro.cfg.webs.rename_webs` and the coloring heuristics call
them directly.  The set-based reference construction stays, reached
only by name (:func:`~repro.core.analysis.analyze_thread_reference`,
``compute_liveness_reference``, ``rename_webs_reference``,
``dsatur_color_reference``, ``simplify_color_reference``): the tests
compare against it, and the analysis cache's
``analysis.dense_to_reference`` fallback re-analyzes with it.
Everything downstream of liveness keys off the presence of the
:class:`DenseLiveness` payload, so one analysis never mixes the two.

The conflict kernel encodes the paper's def-vs-dying-use exception (see
:func:`repro.core.analysis.true_conflict`) as three mask formulas.  For
an occupant ``a`` of slot ``s`` with occupant mask ``occ``, def mask
``defs`` and dying mask ``dying``::

    a in defs:   conf = (occ & ~(dying & ~defs)) & ~bit(a)
    a in dying:  conf = (occ & ~defs)            & ~bit(a)
    otherwise:   conf =  occ                     & ~bit(a)

``tests/test_dense.py`` checks this against the shared predicate over
every membership combination, and differentially checks whole analyses,
bounds and allocations against the reference implementation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cfg.liveness import Liveness
from repro.cfg.nsr import NsrInfo
from repro.igraph.graph import (
    UndirectedGraph,
    bit_indices,
    graph_from_dense,
    popcount,
)
from repro.igraph.interference import InterferenceGraphs
from repro.ir.operands import Reg
from repro.ir.program import Program

__all__ = [
    "DenseAnalysisIndex",
    "DenseLiveness",
    "DenseMap",
    "build_interference_dense",
    "compute_liveness_dense",
    "finish_analysis_dense",
    "get_default_analysis_impl",
    "mask_of_slots",
    "popcount",
]


def get_default_analysis_impl() -> str:
    """The implementation that builds analyses: always ``"dense"``.

    Kept because ``perfbench/tracer.py`` records it for every analysis
    to count ``core.analysis.reference_calls``.
    """
    return "dense"


def mask_of_slots(slots: Iterable[int]) -> int:
    """Bitmask over instruction-slot indices."""
    m = 0
    for s in slots:
        m |= 1 << s
    return m


# ---------------------------------------------------------------------------
# Dense renumbering.
# ---------------------------------------------------------------------------
class DenseMap:
    """Contiguous renumbering of a program's registers.

    Registers are numbered in ``str``-sorted order, making ascending bit
    order identical to the reference implementation's deterministic sort
    order -- the invariant every bit-identity argument relies on.
    """

    __slots__ = ("regs", "index", "_frozen")

    def __init__(self, regs: Iterable[Reg]) -> None:
        self.regs: Tuple[Reg, ...] = tuple(sorted(set(regs), key=str))
        self.index: Dict[Reg, int] = {r: i for i, r in enumerate(self.regs)}
        #: mask -> frozenset memo; liveness reuses a handful of masks
        #: across many program points, so interning pays for itself.
        self._frozen: Dict[int, FrozenSet[Reg]] = {0: frozenset()}

    def __len__(self) -> int:
        return len(self.regs)

    def mask_of(self, regs: Iterable[Reg]) -> int:
        index = self.index
        m = 0
        for r in regs:
            m |= 1 << index[r]
        return m

    def expand(self, mask: int) -> List[Reg]:
        """Registers of ``mask``, ascending bit (== ``str``) order."""
        regs = self.regs
        return [regs[i] for i in bit_indices(mask)]

    def frozen(self, mask: int) -> FrozenSet[Reg]:
        """Memoized frozenset materialization of ``mask``."""
        f = self._frozen.get(mask)
        if f is None:
            f = frozenset(self.expand(mask))
            self._frozen[mask] = f
        return f


class DenseLiveness:
    """Bitmask payload attached to a dense-built :class:`Liveness`.

    Register masks are indexed by :class:`DenseMap` bit; slot masks are
    indexed by instruction slot.  Downstream passes (:mod:`repro.cfg.nsr`,
    :func:`build_interference_dense`, :func:`finish_analysis_dense`) key
    off this payload's presence instead of re-consulting the registry, so
    one analysis never mixes implementations.
    """

    __slots__ = (
        "dmap",
        "live_in",
        "live_out",
        "defs",
        "uses",
        "occ",
        "dying",
        "_slot_masks",
        "_occupied",
    )

    def __init__(
        self,
        dmap: DenseMap,
        live_in: List[int],
        live_out: List[int],
        defs: List[int],
        uses: List[int],
    ) -> None:
        self.dmap = dmap
        self.live_in = live_in
        self.live_out = live_out
        self.defs = defs
        self.uses = uses
        #: A range occupies slot ``i`` when live into it or defined there.
        self.occ = [li | d for li, d in zip(live_in, defs)]
        #: A range dies at ``i`` when used there but not live out.
        self.dying = [u & ~o for u, o in zip(uses, live_out)]
        self._slot_masks: Optional[List[int]] = None
        self._occupied: Dict[Reg, FrozenSet[int]] = {}

    def slot_masks(self) -> List[int]:
        """Per register (by dense index), the mask of occupied slots."""
        if self._slot_masks is None:
            sm = [0] * len(self.dmap)
            for i, m in enumerate(self.occ):
                bit = 1 << i
                while m:
                    low = m & -m
                    sm[low.bit_length() - 1] |= bit
                    m ^= low
            self._slot_masks = sm
        return self._slot_masks

    def occupied_frozen(self, reg: Reg) -> FrozenSet[int]:
        """Memoized occupied-slot frozenset (the fast path behind
        :func:`repro.cfg.liveness.occupied_slots`)."""
        f = self._occupied.get(reg)
        if f is None:
            i = self.dmap.index.get(reg)
            mask = self.slot_masks()[i] if i is not None else 0
            f = frozenset(bit_indices(mask))
            self._occupied[reg] = f
        return f


# ---------------------------------------------------------------------------
# Liveness.
# ---------------------------------------------------------------------------
def compute_liveness_dense(program: Program) -> Liveness:
    """The backward liveness worklist over bitmasks.

    Returns a :class:`Liveness` whose frozensets are materialized only at
    this API boundary (and interned through the :class:`DenseMap` memo);
    the raw masks ride along as the ``_dense`` payload.
    """
    instrs = program.instrs
    n = len(instrs)
    defs_l = [ins.defs for ins in instrs]
    uses_l = [ins.uses for ins in instrs]
    universe: set = set()
    for d in defs_l:
        universe.update(d)
    for u in uses_l:
        universe.update(u)
    dmap = DenseMap(universe)
    index = dmap.index

    def mask(regs: Tuple[Reg, ...]) -> int:
        m = 0
        for r in regs:
            m |= 1 << index[r]
        return m

    defs_m = [mask(d) for d in defs_l]
    uses_m = [mask(u) for u in uses_l]

    succs = [program.successors(i) for i in range(n)]
    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for s in succs[i]:
            preds[s].append(i)

    live_in = [0] * n
    live_out = [0] * n
    worklist = list(range(n))
    in_list = [True] * n
    while worklist:
        i = worklist.pop()
        in_list[i] = False
        out = 0
        for s in succs[i]:
            out |= live_in[s]
        new_in = (out & ~defs_m[i]) | uses_m[i]
        live_out[i] = out
        if new_in != live_in[i]:
            live_in[i] = new_in
            for p in preds[i]:
                if not in_list[p]:
                    in_list[p] = True
                    worklist.append(p)

    payload = DenseLiveness(dmap, live_in, live_out, defs_m, uses_m)
    frozen = dmap.frozen
    return Liveness(
        program=program,
        live_in=[frozen(m) for m in live_in],
        live_out=[frozen(m) for m in live_out],
        def_sets=[frozen(m) for m in defs_m],
        _dense=payload,
    )


# ---------------------------------------------------------------------------
# Interference graphs.
# ---------------------------------------------------------------------------
def build_interference_dense(
    liveness: Liveness, nsr: NsrInfo
) -> InterferenceGraphs:
    """GIG/BIG/IIG construction from adjacency bitmasks.

    Mirrors :func:`repro.igraph.interference.build_interference` exactly:
    the GIG gets every register as a node and the
    :func:`~repro.cfg.liveness.co_live_pairs` relation as edges (a def
    interferes with everything live-out plus the simultaneous-writes
    clique, entry-live registers form a clique); the BIG holds per-CSB
    cliques over boundary ranges; the IIGs carry GIG edges between
    internal ranges, asserting the paper's claim 2.
    """
    dl: DenseLiveness = liveness._dense  # type: ignore[assignment]
    dmap = dl.dmap
    regs = dmap.regs
    nregs = len(regs)
    n = len(liveness.program.instrs)

    adj = [0] * nregs
    entry_m = dl.live_in[0] if n else 0
    m = entry_m
    while m:
        low = m & -m
        adj[low.bit_length() - 1] |= entry_m & ~low
        m ^= low
    for i in range(n):
        d = dl.defs[i]
        if not d:
            continue
        out = dl.live_out[i]
        both = out | d
        m = d
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= both & ~low
            m ^= low
        m = out & ~d
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= d
            m ^= low
    gig = graph_from_dense(regs, (1 << nregs) - 1 if nregs else 0, adj)

    badj = [0] * nregs
    m = entry_m
    while m:
        low = m & -m
        badj[low.bit_length() - 1] |= entry_m & ~low
        m ^= low
    for c in nsr.csbs:
        am = dl.live_out[c] & ~dl.defs[c]
        m = am
        while m:
            low = m & -m
            badj[low.bit_length() - 1] |= am & ~low
            m ^= low
    boundary_mask = dmap.mask_of(nsr.boundary)
    big = graph_from_dense(regs, boundary_mask, badj)

    iigs: Dict[int, UndirectedGraph] = {
        rid: UndirectedGraph() for rid in range(nsr.n_regions)
    }
    for reg in nsr.internal:
        iigs[nsr.nsr_of_internal[reg]].add_node(reg)
    internal_mask = dmap.mask_of(nsr.internal)
    m = internal_mask
    while m:
        low = m & -m
        ai = low.bit_length() - 1
        m ^= low
        # Only pairs with the higher-indexed endpoint: each edge once, in
        # the reference's ``gig.edges()`` (str-sorted) order.
        pairs = adj[ai] & internal_mask & ~((low << 1) - 1)
        if not pairs:
            continue
        a = regs[ai]
        rid_a = nsr.nsr_of_internal[a]
        while pairs:
            lo2 = pairs & -pairs
            b = regs[lo2.bit_length() - 1]
            pairs ^= lo2
            rid_b = nsr.nsr_of_internal[b]
            if rid_a != rid_b:
                raise AssertionError(
                    f"internal ranges {a} (NSR {rid_a}) and {b} "
                    f"(NSR {rid_b}) interfere across regions; "
                    f"claim 2 violated"
                )
            iigs[rid_a].add_edge(a, b)

    return InterferenceGraphs(
        gig=gig,
        big=big,
        iigs=iigs,
        boundary=nsr.boundary,
        internal=nsr.internal,
    )


# ---------------------------------------------------------------------------
# The slot/occupant/conflict model.
# ---------------------------------------------------------------------------
class DenseAnalysisIndex:
    """Bitmask companion to a dense-built ``ThreadAnalysis``.

    Carries the register renumbering, per-register occupied-slot masks,
    and (built lazily, per register) the per-conflicting-range slot masks
    the allocation context's conflict probes answer from.
    """

    __slots__ = ("dmap", "_slot_masks", "_conflict_masks", "_dl", "_pairs")

    def __init__(
        self, dmap: DenseMap, slot_masks: List[int], dl: "DenseLiveness"
    ) -> None:
        self.dmap = dmap
        self._slot_masks = slot_masks
        self._conflict_masks: Dict[Reg, Dict[Reg, int]] = {}
        self._dl = dl
        self._pairs: Optional[Dict[Tuple[int, int], List[int]]] = None

    def slot_mask(self, reg: Reg) -> int:
        i = self.dmap.index.get(reg)
        return self._slot_masks[i] if i is not None else 0

    def conflict_masks(
        self, reg: Reg, pairs: Tuple[Tuple[int, Reg], ...]
    ) -> Dict[Reg, int]:
        """``conflicts_at[reg]`` regrouped as ``{other: slot mask}``.

        ``pairs`` must be the analysis' ``conflicts_at`` entry for
        ``reg``; the grouping is memoized per register.
        """
        cm = self._conflict_masks.get(reg)
        if cm is None:
            cm = {}
            for s, b in pairs:
                bit = 1 << s
                prev = cm.get(b)
                cm[b] = bit if prev is None else prev | bit
            self._conflict_masks[reg] = cm
        return cm

    def conflict_pair_slots(self) -> Dict[Tuple[int, int], List[int]]:
        """Each unordered conflicting pair once, by dense rank, with its
        ascending conflict-slot list.

        The int-space source of ``ThreadAnalysis.conflict_pairs``: the
        per-slot conflict relation re-derived from the liveness masks
        entirely in index space, so no register object is hashed per
        pair.  Lazy -- analyses that never validate a context never pay.
        """
        if self._pairs is None:
            dl = self._dl
            grouped: Dict[Tuple[int, int], List[int]] = {}
            for s, om in enumerate(dl.occ):
                if not (om & (om - 1)):
                    continue
                dm = dl.defs[s] & om
                dym = dl.dying[s] & om
                dnd = dym & ~dm
                idxs = list(bit_indices(om))
                plain = not (dm and dym)
                for ai in idxs:
                    abit = 1 << ai
                    if plain:
                        conf = om
                    elif dm & abit:
                        conf = om & ~dnd
                    elif dym & abit:
                        conf = om & ~dm
                    else:
                        conf = om
                    conf &= ~((abit << 1) - 1)  # each pair once: b > a
                    while conf:
                        low = conf & -conf
                        conf ^= low
                        key = (ai, low.bit_length() - 1)
                        g = grouped.get(key)
                        if g is None:
                            grouped[key] = [s]
                        else:
                            g.append(s)
            self._pairs = grouped
        return self._pairs


def finish_analysis_dense(
    program: Program,
    liveness: Liveness,
    nsr: NsrInfo,
    graphs: InterferenceGraphs,
) -> "ThreadAnalysis":  # noqa: F821 - imported lazily to avoid a cycle
    """Build every ``ThreadAnalysis`` field from the liveness masks.

    Every dict/tuple is produced pre-sorted (slots ascend, mask bits
    ascend == ``str`` ascends), so no field needs a final sort and the
    result compares equal, order included, to the reference builder's.
    """
    from repro.core.analysis import ThreadAnalysis

    dl: DenseLiveness = liveness._dense  # type: ignore[assignment]
    dmap = dl.dmap
    regs = dmap.regs
    frozen = dmap.frozen
    n = len(program.instrs)
    occ = dl.occ

    slot_masks = dl.slot_masks()
    slots = {r: dl.occupied_frozen(r) for r in regs}

    flow: Dict[Reg, List[Tuple[int, int]]] = {r: [] for r in regs}
    for i in range(n):
        occ_i = occ[i]
        if not occ_i:
            continue
        for j in program.successors(i):
            m = liveness._dense.live_in[j] & occ_i  # type: ignore[union-attr]
            while m:
                low = m & -m
                flow[regs[low.bit_length() - 1]].append((i, j))
                m ^= low
    flow_edges = {r: tuple(sorted(e)) for r, e in flow.items()}

    occupants: Dict[int, Tuple[Reg, ...]] = {}
    for i in range(n):
        m = occ[i]
        if m:
            occupants[i] = tuple(dmap.expand(m))

    live_across = {
        c: frozen(dl.live_out[c] & ~dl.defs[c]) for c in nsr.csbs
    }
    csb_sets: Dict[Reg, set] = {r: set() for r in regs}
    for c, across in live_across.items():
        for reg in across:
            csb_sets[reg].add(c)
    for reg in liveness.entry_live():
        csb_sets[reg].add(-1)

    defs_at = {i: frozen(dl.defs[i]) for i in range(n) if dl.defs[i]}
    dying_at = {i: frozen(dl.dying[i]) for i in range(n) if dl.dying[i]}

    # Pair volume dominates large kernels (hundreds of thousands of
    # (slot, other) tuples), so the loop builds each slot's k ``(s, b)``
    # tuples once and shares them across all k occupants' lists: the
    # clique case is two slice copies around the occupant's own entry,
    # and the exception cases filter the shared list instead of
    # re-allocating tuples per pair.  Exceptions follow
    # :func:`repro.core.analysis.true_conflict`: a def skips the
    # dying-not-def ranges, a dying use skips the defs.
    conflicts: Dict[Reg, List[Tuple[int, Reg]]] = {r: [] for r in regs}
    for s, occ_list in occupants.items():
        om = occ[s]
        if not (om & (om - 1)):
            continue  # fewer than two occupants: no pairs
        dm = dl.defs[s] & om
        dym = dl.dying[s] & om
        all_pairs = [(s, b) for b in occ_list]
        if not (dm and dym):
            # No def/dying-use exception possible: full pairwise clique.
            for p, a in enumerate(occ_list):
                lst = conflicts[a]
                lst.extend(all_pairs[:p])
                lst.extend(all_pairs[p + 1 :])
            continue
        dnd_set = frozen(dym & ~dm)
        def_set = frozen(dm)
        m = om
        for p, a in enumerate(occ_list):
            low = m & -m
            m ^= low
            if dm & low:
                excl = dnd_set
            elif dym & low:
                excl = def_set
            else:
                excl = None
            lst = conflicts[a]
            if excl:
                lst.extend(
                    [t for t in all_pairs if t[1] is not a and t[1] not in excl]
                )
            else:
                lst.extend(all_pairs[:p])
                lst.extend(all_pairs[p + 1 :])
    conflicts_at = {r: tuple(v) for r, v in conflicts.items()}

    return ThreadAnalysis(
        program=program,
        liveness=liveness,
        nsr=nsr,
        graphs=graphs,
        slots=slots,
        flow_edges=flow_edges,
        occupants=occupants,
        live_across=live_across,
        csb_slots_of={r: frozenset(s) for r, s in csb_sets.items()},
        defs_at=defs_at,
        dying_at=dying_at,
        conflicts_at=conflicts_at,
        dense=DenseAnalysisIndex(dmap, slot_masks, dl),
    )

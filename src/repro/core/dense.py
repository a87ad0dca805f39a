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
(occupant tuples, flow edges, tie-breaks in the coloring heuristics)
without ever calling ``sorted``.  That is what makes the two
implementations bit-identical rather than merely equivalent: same
:class:`~repro.core.analysis.ThreadAnalysis` contents, same
allocations, same benchmark JSON.

The dense kernels are the only path an analysis takes:
:func:`~repro.cfg.liveness.compute_liveness`,
:func:`~repro.cfg.webs.rename_webs` and the coloring heuristics call
them directly, and the allocator, the bounds and the baseline's
standalone count read only the masks they leave behind.  The set-based
reference construction stays as the oracle, reached only by name
(:func:`~repro.core.analysis.analyze_thread_reference`,
``compute_liveness_reference``, ``rename_webs_reference``,
``dsatur_color_reference``, ``simplify_color_reference``,
``merge_region_colorings_reference``): the tests and
``repro bench analysis`` compare against it, and nothing allocates on
its analyses.  Everything downstream of liveness keys off the presence
of the :class:`DenseLiveness` payload, so one analysis never mixes the
two.

Interference stays in mask form.  :func:`build_interference_dense`
returns an :class:`~repro.igraph.interference.InterferenceMasks` payload
over the :class:`DenseMap` ranks -- GIG and BIG neighbor masks, the
boundary mask and one node mask per NSR -- and builds no graph object.
The Figure-7 merge (:func:`repro.igraph.merge.merge_region_colorings`),
the Chaitin baseline (which shares :func:`gig_adjacency` and
:func:`liveness_masks`) and the Figure-14 standalone count color those
masks; ``analysis.graphs.gig``/``big``/``iigs`` are built from them only
when something reads them (the analysis digest and the tests).

The conflict kernel encodes the paper's def-vs-dying-use exception (see
:func:`repro.core.analysis.true_conflict`) as three mask formulas.  For
an occupant ``a`` of slot ``s`` with occupant mask ``occ``, def mask
``defs`` and dying mask ``dying``::

    a in defs:   conf = (occ & ~(dying & ~defs)) & ~bit(a)
    a in dying:  conf = (occ & ~defs)            & ~bit(a)
    otherwise:   conf =  occ                     & ~bit(a)

ORed over the slots, the formulas give each range's neighbour mask.  Per
pair of ranges the relation stays a slot mask: ``a`` and ``b`` conflict
at ``slot_mask(a) & slot_mask(b) & ~exc(a, b)``, where ``slot_mask`` is
a range's occupied-slot mask and ``exc`` the sparse table of the slots
where the exception applies.  The ``(slot, other)`` pair lists a
reference-built analysis stores as ``conflicts_at`` are derived from
these masks only for the tests and the analysis digest.

``tests/test_dense.py`` checks this against the shared predicate over
every membership combination, and differentially checks whole analyses,
merges and bounds against the reference implementation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.cfg.liveness import Liveness
from repro.cfg.nsr import NsrInfo
from repro.igraph.graph import bit_indices, popcount
from repro.igraph.interference import InterferenceGraphs, InterferenceMasks
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
    "gig_adjacency",
    "liveness_masks",
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
def liveness_masks(program: Program) -> DenseLiveness:
    """The backward liveness worklist over bitmasks, masks only."""
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

    return DenseLiveness(dmap, live_in, live_out, defs_m, uses_m)


def compute_liveness_dense(program: Program) -> Liveness:
    """:func:`liveness_masks` as a :class:`Liveness`.

    The frozensets are materialized only at this API boundary (and
    interned through the :class:`DenseMap` memo); the raw masks ride
    along as the ``_dense`` payload.
    """
    dl = liveness_masks(program)
    frozen = dl.dmap.frozen
    return Liveness(
        program=program,
        live_in=[frozen(m) for m in dl.live_in],
        live_out=[frozen(m) for m in dl.live_out],
        def_sets=[frozen(m) for m in dl.defs],
        _dense=dl,
    )


# ---------------------------------------------------------------------------
# Interference graphs.
# ---------------------------------------------------------------------------
def gig_adjacency(dl: DenseLiveness) -> List[int]:
    """Per register rank, the GIG neighbor mask.

    The :func:`~repro.cfg.liveness.co_live_pairs` relation: a def
    interferes with everything live out of its instruction plus the
    simultaneous-writes clique, and the registers live at entry form a
    clique.  The dense analysis and the Chaitin baseline both build their
    interference graphs here.
    """
    adj = [0] * len(dl.dmap)
    entry_m = dl.live_in[0] if dl.live_in else 0
    m = entry_m
    while m:
        low = m & -m
        adj[low.bit_length() - 1] |= entry_m & ~low
        m ^= low
    # Each def takes its instruction's edges in one OR; the other
    # direction is added once per edge below, not once per instruction
    # that re-creates the edge.
    defined = [0] * len(adj)
    for d, out in zip(dl.defs, dl.live_out):
        if not d:
            continue
        both = out | d
        m = d
        while m:
            low = m & -m
            defined[low.bit_length() - 1] |= both & ~low
            m ^= low
    for a, m in enumerate(defined):
        if not m:
            continue
        adj[a] |= m
        bit = 1 << a
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= bit
            m ^= low
    return adj


def build_interference_dense(
    liveness: Liveness, nsr: NsrInfo
) -> InterferenceGraphs:
    """GIG/BIG/IIG construction as adjacency bitmasks.

    Mirrors :func:`repro.igraph.interference.build_interference` exactly,
    as :class:`~repro.igraph.interference.InterferenceMasks` over the
    liveness' ranks: the GIG gets every register as a node and
    :func:`gig_adjacency` as edges; the BIG holds per-CSB cliques over
    boundary ranges (and the entry clique); each IIG is its NSR's
    internal ranges with the GIG edges between them, asserting the
    paper's claim 2.
    """
    dl: DenseLiveness = liveness._dense  # type: ignore[assignment]
    dmap = dl.dmap
    regs = dmap.regs
    index = dmap.index
    adj = gig_adjacency(dl)

    badj = [0] * len(regs)
    entry_m = dl.live_in[0] if dl.live_in else 0
    for am in [entry_m] + [dl.live_out[c] & ~dl.defs[c] for c in nsr.csbs]:
        m = am
        while m:
            low = m & -m
            badj[low.bit_length() - 1] |= am & ~low
            m ^= low

    regions = [0] * nsr.n_regions
    for reg in nsr.internal:
        regions[nsr.nsr_of_internal[reg]] |= 1 << index[reg]
    internal_mask = dmap.mask_of(nsr.internal)
    for ai in bit_indices(internal_mask):
        # Ascending ranks meet a cross-region edge at its lower endpoint
        # first, as the reference's ``gig.edges()`` walk does.
        a = regs[ai]
        rid_a = nsr.nsr_of_internal[a]
        cross = adj[ai] & internal_mask & ~regions[rid_a]
        if cross:
            b = regs[(cross & -cross).bit_length() - 1]
            raise AssertionError(
                f"internal ranges {a} (NSR {rid_a}) and {b} "
                f"(NSR {nsr.nsr_of_internal[b]}) interfere across "
                f"regions; claim 2 violated"
            )

    masks = InterferenceMasks(
        regs=regs,
        gig=adj,
        big=badj,
        boundary=dmap.mask_of(nsr.boundary),
        regions=regions,
    )
    return InterferenceGraphs(nsr.boundary, nsr.internal, masks=masks)


# ---------------------------------------------------------------------------
# The slot/occupant/conflict model.
# ---------------------------------------------------------------------------
class DenseAnalysisIndex:
    """Bitmask companion to a dense-built ``ThreadAnalysis``.

    Carries the register renumbering, per-register occupied-slot masks
    and the def-vs-dying-use exception table; the true-conflict relation
    is derived from them as masks.  Ranges ``a`` and ``b`` conflict at
    the slots ``slot_mask(a) & slot_mask(b) & ~exc(a, b)``.

    The memos (neighbour masks, per-range conflict maps) are pure
    functions of the analysis, and a cached analysis is shared between
    service workers: a racing first build stores an equal value and the
    last write wins.
    """

    __slots__ = (
        "dmap",
        "_slot_masks",
        "_exceptions",
        "_dl",
        "_neighbors",
        "_conflict_masks",
    )

    def __init__(
        self,
        dmap: DenseMap,
        slot_masks: List[int],
        exceptions: Dict[int, Dict[int, int]],
        dl: "DenseLiveness",
    ) -> None:
        self.dmap = dmap
        self._slot_masks = slot_masks
        #: rank a -> rank b -> the slots where a def of one meets the
        #: other dying there without a def; both directions are stored.
        self._exceptions = exceptions
        self._dl = dl
        self._neighbors: Optional[List[int]] = None
        self._conflict_masks: Dict[Reg, Dict[Reg, int]] = {}

    def slot_mask(self, reg: Reg) -> int:
        i = self.dmap.index.get(reg)
        return self._slot_masks[i] if i is not None else 0

    def relation(self, ai: int) -> Iterator[Tuple[int, int]]:
        """``(rank, slot mask)`` of each range that truly conflicts with
        rank ``ai``, by ascending rank: the one source of
        :meth:`conflict_masks`, :meth:`conflict_lists` and
        ``ThreadAnalysis.conflict_pairs``."""
        sm = self._slot_masks
        own = sm[ai]
        exc = self._exceptions.get(ai, {})
        for bi in bit_indices(self.conflict_neighbor_masks()[ai]):
            yield bi, own & sm[bi] & ~exc.get(bi, 0)

    def conflict_masks(self, reg: Reg) -> Dict[Reg, int]:
        """``reg``'s true conflicts as ``{other: slot mask}``, in rank
        order; memoized per register."""
        cm = self._conflict_masks.get(reg)
        if cm is None:
            regs = self.dmap.regs
            ai = self.dmap.index[reg]
            cm = {regs[bi]: m for bi, m in self.relation(ai)}
            self._conflict_masks[reg] = cm
        return cm

    def conflict_lists(self) -> Dict[Reg, Tuple[Tuple[int, Reg], ...]]:
        """Every range's ``(slot, other)`` conflict pairs, sorted by
        (slot, rank): the ``conflicts_at`` a reference-built analysis
        stores, order included.

        Re-derived on every call and kept nowhere.  The allocator never
        calls it; the differential tests and the analysis digest do.
        """
        regs = self.dmap.regs
        out: Dict[Reg, Tuple[Tuple[int, Reg], ...]] = {}
        for ai, reg in enumerate(regs):
            pairs = sorted(
                (s, bi) for bi, m in self.relation(ai) for s in bit_indices(m)
            )
            out[reg] = tuple((s, regs[bi]) for s, bi in pairs)
        return out

    def conflict_neighbor_masks(self) -> List[int]:
        """Per range (by dense rank), the mask of the ranges it truly
        conflicts with at some slot; memoized.

        The source of ``ThreadAnalysis.conflict_neighbors``, which keeps
        no copy, and of :meth:`relation`: each occupant's conflict mask
        at each slot (the three formulas in the module docstring), ORed
        over the slots.
        """
        if self._neighbors is not None:
            return self._neighbors
        dl = self._dl
        nbr = [0] * len(self.dmap)
        for om, d, dy in zip(dl.occ, dl.defs, dl.dying):
            if not (om & (om - 1)):
                continue  # fewer than two occupants: no pairs
            dm = d & om
            dnd = dy & om & ~dm
            for ai in bit_indices(om):
                abit = 1 << ai
                if dm & abit:
                    nbr[ai] |= om & ~dnd
                elif dy & abit:
                    nbr[ai] |= om & ~dm
                else:
                    nbr[ai] |= om
        nbrs = [m & ~(1 << ai) for ai, m in enumerate(nbr)]
        self._neighbors = nbrs
        return nbrs


def finish_analysis_dense(
    program: Program,
    liveness: Liveness,
    nsr: NsrInfo,
    graphs: InterferenceGraphs,
) -> "ThreadAnalysis":  # noqa: F821 - imported lazily to avoid a cycle
    """Build the ``ThreadAnalysis`` fields from the liveness masks.

    Every dict/tuple is produced pre-sorted (slots ascend, mask bits
    ascend == ``str`` ascends), so no field needs a final sort and the
    result compares equal, order included, to the reference builder's.
    The true-conflict relation is not listed pair by pair: the analysis
    stores no ``conflicts_at``, and its :class:`DenseAnalysisIndex` keeps
    the exception table the relation's masks are derived from.
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

    # The def-vs-dying-use exception of true_conflict, the only
    # co-occupancy that is not a conflict: a def skips the ranges dying
    # at its slot without a def there, in both directions.  Both sides
    # occupy the slot (a use is live in), so the slots two ranges share
    # minus these are where they truly conflict.
    exceptions: Dict[int, Dict[int, int]] = {}
    for s, (dm, dy) in enumerate(zip(dl.defs, dl.dying)):
        dnd = dy & ~dm
        if not (dm and dnd):
            continue
        bit = 1 << s
        for ai in bit_indices(dm):
            for bi in bit_indices(dnd):
                for x, y in ((ai, bi), (bi, ai)):
                    row = exceptions.setdefault(x, {})
                    row[y] = row.get(y, 0) | bit

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
        dense=DenseAnalysisIndex(dmap, slot_masks, exceptions, dl),
    )

"""Builders for the paper's three interference graphs (section 3.2).

* **GIG** (global interference graph): every live range of the thread; an
  edge joins any two ranges co-live at some program point.
* **BIG** (boundary interference graph): only boundary live ranges; an edge
  joins two ranges co-live across the *same* CSB (or both live at program
  entry, which behaves like a boundary -- other threads run before the
  thread's first instruction).
* **IIG_k** (internal interference graph of NSR ``k``): only internal live
  ranges living in NSR ``k``, with their interference edges.

Claim 2 of the paper (internal nodes of different IIGs never interfere)
holds by construction and is asserted by tests.

Note the GIG may contain boundary-boundary edges that are *not* in the BIG:
two ranges can overlap inside an NSR while being live across different
CSBs.  The merge step (:mod:`repro.igraph.merge`) resolves those conflicts
too, since the safety requirement is a valid GIG coloring with boundary
nodes confined to private colors.

Analyses built by the dense kernels keep the three graphs as
:class:`InterferenceMasks` only (see
:func:`repro.core.dense.build_interference_dense`); the set-based
:func:`build_interference` path builds :class:`UndirectedGraph` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cfg.liveness import Liveness, co_live_pairs
from repro.cfg.nsr import NsrInfo
from repro.igraph.graph import UndirectedGraph, bit_indices
from repro.ir.operands import Reg


@dataclass
class InterferenceMasks:
    """The GIG/BIG/IIGs as neighbor masks over register ranks.

    What :func:`repro.core.dense.build_interference_dense` keeps instead
    of graph objects.  Rank ``i`` is ``regs[i]``, the
    analysis' :class:`~repro.core.dense.DenseMap` numbering, so ascending
    bit order is ``str`` order.

    Attributes:
        regs: every register of the program, by rank; all are GIG nodes.
        gig: per rank, the GIG neighbor mask.
        big: per rank, the BIG neighbor mask (zero off the boundary).
        boundary: the mask of boundary ranks, the BIG's nodes.
        regions: per NSR id, the mask of its internal ranks, the nodes of
            that IIG; an IIG's edges are the GIG's within its mask.
    """

    regs: Tuple[Reg, ...]
    gig: List[int]
    big: List[int]
    boundary: int
    regions: List[int]

    def graph(self, nodes: int, adj: List[int]) -> UndirectedGraph:
        """The graph on the ranks of ``nodes`` with ``adj`` restricted
        to them."""
        regs = self.regs
        g = UndirectedGraph()
        for i in bit_indices(nodes):
            g.add_node(regs[i])
            for j in bit_indices(adj[i] & nodes & ~((2 << i) - 1)):
                g.add_edge(regs[i], regs[j])
        return g


class InterferenceGraphs:
    """The GIG/BIG/IIG family for one thread.

    The set-based :func:`build_interference` hands over graph objects.
    The dense construction hands over only its :class:`InterferenceMasks`
    as ``masks``, the one representation the production paths read;
    ``gig``, ``big`` and ``iigs`` are then built from the masks on first
    read, for the analysis digest and the tests.  Two threads racing on
    a first read each build equal graphs and the last write wins, like
    the analysis' other lazy memos.
    """

    #: The dense construction's payload; ``None`` on reference-built
    #: graphs.
    masks: Optional[InterferenceMasks] = None

    def __init__(
        self,
        boundary: FrozenSet[Reg],
        internal: FrozenSet[Reg],
        *,
        masks: Optional[InterferenceMasks] = None,
        gig: Optional[UndirectedGraph] = None,
        big: Optional[UndirectedGraph] = None,
        iigs: Optional[Dict[int, UndirectedGraph]] = None,
    ) -> None:
        self.boundary = boundary
        self.internal = internal
        if masks is not None:
            self.masks = masks
        else:
            self.gig, self.big, self.iigs = gig, big, iigs

    @cached_property
    def gig(self) -> UndirectedGraph:
        m = self.masks
        return m.graph((1 << len(m.regs)) - 1, m.gig)

    @cached_property
    def big(self) -> UndirectedGraph:
        m = self.masks
        return m.graph(m.boundary, m.big)

    @cached_property
    def iigs(self) -> Dict[int, UndirectedGraph]:
        m = self.masks
        return {
            rid: m.graph(nodes, m.gig) for rid, nodes in enumerate(m.regions)
        }


def build_interference(liveness: Liveness, nsr: NsrInfo) -> InterferenceGraphs:
    """Construct GIG, BIG and the IIGs from liveness and NSR facts.

    A liveness carrying the dense bitmask payload (built by the dense
    analysis kernels, see :mod:`repro.core.dense`) routes to the
    adjacency-bitset builder; results are bit-identical either way.
    """
    if liveness._dense is not None:
        from repro.core.dense import build_interference_dense

        return build_interference_dense(liveness, nsr)
    program = liveness.program

    gig = UndirectedGraph()
    for instr in program.instrs:
        for reg in instr.regs:
            gig.add_node(reg)
    for a, b in co_live_pairs(liveness):
        gig.add_edge(a, b)

    big = UndirectedGraph()
    for reg in nsr.boundary:
        big.add_node(reg)
    entry = sorted(liveness.entry_live(), key=str)
    for i in range(len(entry)):
        for j in range(i + 1, len(entry)):
            big.add_edge(entry[i], entry[j])
    for c in nsr.csbs:
        across = sorted(liveness.live_across_csb(c), key=str)
        for i in range(len(across)):
            for j in range(i + 1, len(across)):
                big.add_edge(across[i], across[j])

    iigs: Dict[int, UndirectedGraph] = {
        rid: UndirectedGraph() for rid in range(nsr.n_regions)
    }
    for reg in nsr.internal:
        iigs[nsr.nsr_of_internal[reg]].add_node(reg)
    for a, b in gig.edges():
        if a in nsr.internal and b in nsr.internal:
            rid_a = nsr.nsr_of_internal[a]
            rid_b = nsr.nsr_of_internal[b]
            if rid_a != rid_b:
                raise AssertionError(
                    f"internal ranges {a} (NSR {rid_a}) and {b} (NSR {rid_b}) "
                    f"interfere across regions; claim 2 violated"
                )
            iigs[rid_a].add_edge(a, b)

    return InterferenceGraphs(
        nsr.boundary, nsr.internal, gig=gig, big=big, iigs=iigs
    )

"""A small deterministic undirected graph, and the bit helpers the mask
kernels share.

Nodes are arbitrary hashable values.  Iteration orders are made
deterministic by sorting on ``str(node)``, so colorings and the allocation
pipeline built on top are exactly reproducible run to run.

The sorted views (:meth:`nodes`, :meth:`edges`, :meth:`neighbors`) are
memoized against a mutation version counter, so repeated queries of an
unchanged graph do not re-sort its adjacency sets.  Mutators bump the
version only when they actually change the graph (re-adding an existing
node or edge is free), and every cached list is returned as-is --
callers must not mutate the returned lists, which no caller does.

:meth:`dense_view` exposes the same adjacency as a
:class:`DenseAdjacency`: nodes renumbered to contiguous ints (in the
sorted-node order, so bit order matches ``str`` order) with one big-int
neighbor bitmask per node, which the coloring heuristics walk instead of
per-node Python sets.  No workload builds a graph: the dense analysis
kernels (:mod:`repro.core.dense`) keep each interference graph as
neighbor masks over register ranks
(:class:`~repro.igraph.interference.InterferenceMasks`), and the Figure-7
merge and the Chaitin baseline color those masks directly.  Graphs are
built by the set-based reference analysis, and from the masks for the
analysis digest and the tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

Node = Hashable

try:  # int.bit_count is Python 3.10+; CI still runs 3.9.
    popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised on 3.9 only

    def popcount(mask: int) -> int:
        """Number of set bits in ``mask`` (non-negative)."""
        return bin(mask).count("1")


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_clear_bit(mask: int) -> int:
    """Index of the lowest zero bit: the first color a used-color mask
    leaves free."""
    return (~mask & (mask + 1)).bit_length() - 1


class DenseAdjacency:
    """An immutable dense-index snapshot of a graph's adjacency.

    Attributes:
        nodes: the graph's nodes in sorted (``str``) order -- bit ``i``
            everywhere below refers to ``nodes[i]``.
        index: node -> bit position.
        masks: per node, the big-int bitmask of its neighbors.
    """

    __slots__ = ("nodes", "index", "masks")

    def __init__(
        self,
        nodes: Sequence[Node],
        index: Dict[Node, int],
        masks: List[int],
    ) -> None:
        self.nodes = list(nodes)
        self.index = index
        self.masks = masks


class UndirectedGraph:
    """Adjacency-set undirected graph with deterministic iteration."""

    def __init__(self) -> None:
        self._adj: Dict[Node, Set[Node]] = {}
        self._version = 0
        self._nodes_cache: Optional[List[Node]] = None
        self._edges_cache: Optional[List[Tuple[Node, Node]]] = None
        self._nbrs_cache: Dict[Node, List[Node]] = {}
        self._n_edges_cache: Optional[int] = None
        self._dense_cache: Optional[DenseAdjacency] = None
        self._cache_version = -1

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        """Record a structural change, invalidating the sorted views."""
        self._version += 1

    def _sync_caches(self) -> None:
        if self._cache_version != self._version:
            self._nodes_cache = None
            self._edges_cache = None
            self._nbrs_cache.clear()
            self._n_edges_cache = None
            self._dense_cache = None
            self._cache_version = self._version

    def add_node(self, node: Node) -> None:
        if node not in self._adj:
            self._adj[node] = set()
            self._touch()

    def add_edge(self, a: Node, b: Node) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        self.add_node(a)
        self.add_node(b)
        if b not in self._adj[a]:
            self._adj[a].add(b)
            self._adj[b].add(a)
            self._touch()

    def remove_node(self, node: Node) -> None:
        if node not in self._adj:
            return
        for other in self._adj.pop(node):
            self._adj[other].discard(node)
        self._touch()

    def remove_edge(self, a: Node, b: Node) -> None:
        if b in self._adj.get(a, ()):
            self._adj[a].discard(b)
            self._adj[b].discard(a)
            self._touch()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> List[Node]:
        self._sync_caches()
        if self._nodes_cache is None:
            self._nodes_cache = sorted(self._adj, key=str)
        return self._nodes_cache

    def edges(self) -> List[Tuple[Node, Node]]:
        """All edges, each once, ordered by node string form.

        Nodes are assumed to have pairwise-distinct ``str()`` forms (true
        for register operands, this graph's only production node type).
        """
        self._sync_caches()
        if self._edges_cache is None:
            out: List[Tuple[Node, Node]] = []
            for a in self.nodes():
                for b in self.neighbors(a):
                    if str(a) < str(b):
                        out.append((a, b))
            self._edges_cache = out
        return self._edges_cache

    def n_edges(self) -> int:
        self._sync_caches()
        if self._n_edges_cache is None:
            self._n_edges_cache = sum(len(s) for s in self._adj.values()) // 2
        return self._n_edges_cache

    def dense_view(self) -> DenseAdjacency:
        """The adjacency as index-renumbered neighbor bitmasks, memoized
        against the version counter.  Callers must not mutate it."""
        self._sync_caches()
        if self._dense_cache is None:
            nodes = self.nodes()
            index = {n: i for i, n in enumerate(nodes)}
            masks = [0] * len(nodes)
            for node, nbrs in self._adj.items():
                m = 0
                for other in nbrs:
                    m |= 1 << index[other]
                masks[index[node]] = m
            self._dense_cache = DenseAdjacency(nodes, index, masks)
        return self._dense_cache

    def neighbors(self, node: Node) -> List[Node]:
        self._sync_caches()
        cached = self._nbrs_cache.get(node)
        if cached is None:
            cached = sorted(self._adj[node], key=str)
            self._nbrs_cache[node] = cached
        return cached

    def neighbor_set(self, node: Node) -> Set[Node]:
        return self._adj[node]

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def has_edge(self, a: Node, b: Node) -> bool:
        return b in self._adj.get(a, ())

    # ------------------------------------------------------------------
    # Derivatives.
    # ------------------------------------------------------------------
    def copy(self) -> "UndirectedGraph":
        g = UndirectedGraph()
        for node, nbrs in self._adj.items():
            g._adj[node] = set(nbrs)
        return g

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes())


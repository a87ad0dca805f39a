"""Graph-coloring heuristics.

Minimum graph coloring is NP-hard; the paper (and every register allocator
since Chaitin) uses heuristics.  We provide:

* :func:`dsatur_color` -- Brelaz's DSATUR, usually the tightest here;
* :func:`simplify_color` -- Chaitin/Briggs-style simplify-select, the shape
  register allocators traditionally use;
* :func:`min_color` -- run both and keep whichever used fewer colors.

All orders break ties on ``str(node)``, so results are deterministic.

Both heuristics are mask kernels over ranks:
:func:`dsatur_color_masks`, :func:`simplify_color_masks` and
:func:`min_color_masks` color the nodes of a rank mask given per-rank
neighbor masks (saturation and used-color sets as int masks, tie-breaks
on the rank).  The Figure-7 merge calls them on the dense analysis'
masks, whose ranks are assigned in ``str`` order, and the graph entry
points call them on the graph's
:meth:`~repro.igraph.graph.UndirectedGraph.dense_view`.  Each graph entry
point has a set-based twin, :func:`dsatur_color_reference` and
:func:`simplify_color_reference`, which the differential tests call by
name; the twins produce identical colorings, insertion order included.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

from repro.igraph.graph import (
    Node,
    UndirectedGraph,
    bit_indices,
    lowest_clear_bit,
    popcount,
)

Coloring = Dict[Node, int]
#: Rank -> color, in the order the heuristic colored the ranks.
RankColoring = Dict[int, int]


def first_free_color(used: Iterable[int]) -> int:
    """The smallest non-negative integer not in ``used``."""
    taken = set(used)
    c = 0
    while c in taken:
        c += 1
    return c


def dsatur_color_reference(graph: UndirectedGraph) -> Coloring:
    """Set-based :func:`dsatur_color`."""
    coloring: Coloring = {}
    uncolored = set(graph.nodes())
    sat: Dict[Node, set] = {n: set() for n in uncolored}
    while uncolored:
        node = max(
            uncolored,
            key=lambda n: (len(sat[n]), graph.degree(n), str(n)),
        )
        color = first_free_color(sat[node])
        coloring[node] = color
        uncolored.discard(node)
        for nbr in graph.neighbor_set(node):
            if nbr in uncolored:
                sat[nbr].add(color)
    return coloring


def dsatur_color_masks(nodes: int, adj: Sequence[int]) -> RankColoring:
    """Brelaz's DSATUR: always color the node whose neighbors currently
    use the most distinct colors (saturation), breaking ties by degree.

    Colors the ranks of ``nodes``; ``adj[i]`` is rank ``i``'s neighbor
    mask, read only within ``nodes``.  Saturation sets are color masks;
    the selection maximum is taken over ``(popcount(sat), degree,
    rank)``, which equals the reference key ``(len(sat), degree,
    str(node))`` whenever ranks are assigned in ``str`` order and node
    strings are pairwise distinct.
    """
    nbrs = {i: adj[i] & nodes for i in bit_indices(nodes)}
    deg = {i: popcount(m) for i, m in nbrs.items()}
    sat = dict.fromkeys(nbrs, 0)
    sat_cnt = dict.fromkeys(nbrs, 0)
    uncolored = set(nbrs)
    uncolored_mask = nodes
    coloring: RankColoring = {}
    while uncolored:
        i = max(uncolored, key=lambda x: (sat_cnt[x], deg[x], x))
        color = lowest_clear_bit(sat[i])
        coloring[i] = color
        uncolored.discard(i)
        uncolored_mask ^= 1 << i
        bit = 1 << color
        m = nbrs[i] & uncolored_mask
        while m:
            low = m & -m
            m ^= low
            nbr = low.bit_length() - 1
            if not (sat[nbr] & bit):
                sat[nbr] |= bit
                sat_cnt[nbr] += 1
    return coloring


def _color_view(
    graph: UndirectedGraph, kernel: Callable[[int, Sequence[int]], RankColoring]
) -> Coloring:
    """Run a mask kernel on the graph's dense view, keyed back by node."""
    view = graph.dense_view()
    nodes = view.nodes
    ranks = kernel((1 << len(nodes)) - 1, view.masks)
    return {nodes[i]: color for i, color in ranks.items()}


def dsatur_color(graph: UndirectedGraph) -> Coloring:
    """:func:`dsatur_color_masks` on the graph's dense view."""
    return _color_view(graph, dsatur_color_masks)


def simplify_color_reference(graph: UndirectedGraph) -> Coloring:
    """Set-based :func:`simplify_color`."""
    work = graph.copy()
    stack: List[Node] = []
    remaining = set(work.nodes())
    while remaining:
        node = min(remaining, key=lambda n: (work.degree(n), str(n)))
        stack.append(node)
        work.remove_node(node)
        remaining.discard(node)
    coloring: Coloring = {}
    for node in reversed(stack):
        used = {
            coloring[nbr]
            for nbr in graph.neighbor_set(node)
            if nbr in coloring
        }
        coloring[node] = first_free_color(used)
    return coloring


def simplify_color_masks(nodes: int, adj: Sequence[int]) -> RankColoring:
    """Chaitin-style simplify-select.

    Repeatedly remove a minimum-degree node onto a stack, then color in
    reverse removal order with the smallest available color.  Colors the
    ranks of ``nodes`` with ``adj`` read as in :func:`dsatur_color_masks`:
    degrees decrement in place instead of mutating a graph copy, and the
    removal minimum ``(degree, rank)`` equals the reference key
    ``(degree, str(node))`` under the same rank-order invariant.
    """
    nbrs = {i: adj[i] & nodes for i in bit_indices(nodes)}
    deg = {i: popcount(m) for i, m in nbrs.items()}
    remaining = set(nbrs)
    remaining_mask = nodes
    stack: List[int] = []
    while remaining:
        i = min(remaining, key=lambda x: (deg[x], x))
        stack.append(i)
        remaining.discard(i)
        remaining_mask ^= 1 << i
        m = nbrs[i] & remaining_mask
        while m:
            low = m & -m
            m ^= low
            deg[low.bit_length() - 1] -= 1
    colored_mask = 0
    coloring: RankColoring = {}
    for i in reversed(stack):
        used = 0
        m = nbrs[i] & colored_mask
        while m:
            low = m & -m
            m ^= low
            used |= 1 << coloring[low.bit_length() - 1]
        coloring[i] = lowest_clear_bit(used)
        colored_mask |= 1 << i
    return coloring


def simplify_color(graph: UndirectedGraph) -> Coloring:
    """:func:`simplify_color_masks` on the graph's dense view."""
    return _color_view(graph, simplify_color_masks)


def num_colors(coloring: Coloring) -> int:
    """Number of distinct colors used (0 for an empty coloring)."""
    return len(set(coloring.values())) if coloring else 0


def min_color(graph: UndirectedGraph) -> Coloring:
    """Best of DSATUR and simplify-select; deterministic."""
    a = dsatur_color(graph)
    b = simplify_color(graph)
    return a if num_colors(a) <= num_colors(b) else b


def min_color_masks(nodes: int, adj: Sequence[int]) -> RankColoring:
    """:func:`min_color` on rank masks."""
    a = dsatur_color_masks(nodes, adj)
    b = simplify_color_masks(nodes, adj)
    return a if num_colors(a) <= num_colors(b) else b


def validate_coloring(graph: UndirectedGraph, coloring: Coloring) -> None:
    """Raise ``ValueError`` when an edge's endpoints share a color or a
    node is missing from the coloring."""
    for node in graph.nodes():
        if node not in coloring:
            raise ValueError(f"node {node!r} is uncolored")
    for a, b in graph.edges():
        if coloring[a] == coloring[b]:
            raise ValueError(
                f"edge ({a!r}, {b!r}) endpoints share color {coloring[a]}"
            )

"""Region-wise coloring merge with conflict-edge resolution (paper Fig. 7).

The upper-bound estimation colors the BIG and each IIG *independently* --
much cheaper than coloring the whole GIG -- and then merges the colorings:

1. color the BIG minimally; its color count is the initial ``MaxPR``;
2. color every IIG minimally; ``MaxR`` starts as the maximum of ``MaxPR``
   and the largest IIG color count;
3. walk the GIG edges not covered by a single region ("conflict edges");
   whenever both endpoints carry the same color, try in order:

   a. recolor one endpoint within its legal palette (``[0, MaxPR)`` for
      boundary nodes, ``[0, MaxR)`` for internal nodes) avoiding all its
      GIG neighbors;
   b. recolor one *neighbor* of an endpoint to free a color for it (the
      paper's "heuristically try to change their neighbors' colors");
   c. give up and widen: bump ``MaxR`` for a conflict with an internal
      endpoint (the internal node takes the brand-new color), or bump
      ``MaxPR`` for a boundary-boundary conflict (shared-range colors are
      shifted up by one to keep the private palette contiguous).

The result is a valid GIG coloring in which every boundary node's color is
below ``MaxPR`` -- exactly the paper's "coloring scheme" conditions 1-3.

:func:`merge_region_colorings` runs on the
:class:`~repro.igraph.interference.InterferenceMasks` of a dense-built
analysis.  Each color class
is a member mask over register ranks, so "a neighbor of ``i`` uses
``c``" is ``gig[i] & members[c]``, and the conflict-edge pass finds the
next clash of ``a`` as the lowest bit of ``gig[a] & members[color[a]]``
above the last neighbor it visited.  The BIG and each IIG are colored by
the mask kernels (:func:`~repro.igraph.coloring.min_color_masks`) on
their node masks; ranks follow ``str`` order, so every tie-break, the
coloring (insertion order included), ``MaxPR`` and ``MaxR`` equal the
set-based twin's, :func:`merge_region_colorings_reference`, which walks
graph objects and is called by name, by the differential tests only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.igraph.coloring import (
    Coloring,
    RankColoring,
    min_color,
    min_color_masks,
    num_colors,
)
from repro.igraph.graph import Node, bit_indices
from repro.igraph.interference import InterferenceGraphs


@dataclass
class MergeResult:
    """Outcome of the region merge.

    Attributes:
        coloring: valid GIG coloring; boundary nodes use colors
            ``0 .. max_pr-1``.
        max_pr: the paper's ``MaxPR`` upper bound.
        max_r: the paper's ``MaxR`` upper bound.
    """

    coloring: Coloring
    max_pr: int
    max_r: int


def merge_region_colorings(graphs: InterferenceGraphs) -> MergeResult:
    """Run the Figure-7 estimation on ``graphs.masks``, the payload of
    a dense-built analysis (see the module docstring)."""
    im = graphs.masks
    regs = im.regs
    adj = im.gig
    boundary = im.boundary

    color: RankColoring = min_color_masks(boundary, im.big)
    max_pr = num_colors(color)
    max_r = max_pr
    for nodes in im.regions:
        iig = min_color_masks(nodes, adj)
        max_r = max(max_r, num_colors(iig))
        color.update(iig)
    # Ranks isolated from every region graph take color 0, in rank order.
    for i in range(len(regs)):
        color.setdefault(i, 0)
    if color and max_r == 0:
        max_r = 1
    members = [0] * max_r
    for i, c in color.items():
        members[c] |= 1 << i

    def palette_limit(i: int) -> int:
        return max_pr if boundary >> i & 1 else max_r

    def move(i: int, c: int) -> None:
        bit = 1 << i
        members[color[i]] ^= bit
        members[c] |= bit
        color[i] = c

    def free_color(i: int) -> int:
        """First palette color other than ``i``'s own that no GIG
        neighbor uses; -1 when there is none."""
        nbrs = adj[i]
        own = color[i]
        for c in range(palette_limit(i)):
            if c != own and not nbrs & members[c]:
                return c
        return -1

    def try_recolor(i: int) -> bool:
        c = free_color(i)
        if c < 0:
            return False
        move(i, c)
        return True

    def try_recolor_neighbors(i: int) -> bool:
        nbrs = adj[i]
        own = color[i]
        for c in range(palette_limit(i)):
            blockers = nbrs & members[c]
            if c == own or not blockers:
                continue
            moved: List[Tuple[int, int]] = []
            for b in bit_indices(blockers):
                choice = free_color(b)
                if choice < 0:
                    break
                moved.append((b, color[b]))
                move(b, choice)
            else:
                if not nbrs & members[c]:
                    move(i, c)
                    return True
            for b, old in reversed(moved):
                move(b, old)
        return False

    def widen_for(i: int) -> None:
        nonlocal max_pr, max_r
        if boundary >> i & 1:
            # A new private class at max_pr: every shared class moves up.
            members[color[i]] ^= 1 << i
            members.insert(max_pr, 1 << i)
            for j, c in color.items():
                if c >= max_pr:
                    color[j] = c + 1
            color[i] = max_pr
            max_pr += 1
            max_r = max(max_r + 1, max_pr)
        else:
            members.append(0)
            move(i, max_r)
            max_r += 1

    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > len(color) + 10:
            raise AssertionError("region merge failed to converge")
        changed = False
        for a in range(len(regs)):
            above = ~((2 << a) - 1)
            while True:
                clash = adj[a] & members[color[a]] & above
                if not clash:
                    break
                low = clash & -clash
                above = ~((low << 1) - 1)
                b = low.bit_length() - 1
                changed = True
                first, second = a, b
                if boundary >> a & 1 and not boundary >> b & 1:
                    first, second = b, a
                if try_recolor(first) or try_recolor(second):
                    continue
                if try_recolor_neighbors(first) or try_recolor_neighbors(second):
                    continue
                widen_for(first)

    return MergeResult(
        coloring={regs[i]: c for i, c in color.items()},
        max_pr=max_pr,
        max_r=max_r,
    )


def merge_region_colorings_reference(graphs: InterferenceGraphs) -> MergeResult:
    """Set-based :func:`merge_region_colorings` over graph objects."""
    big_coloring = min_color(graphs.big)
    max_pr = max(num_colors(big_coloring), 0)

    coloring: Coloring = dict(big_coloring)
    max_r = max_pr
    for rid in sorted(graphs.iigs):
        iig_coloring = min_color(graphs.iigs[rid])
        max_r = max(max_r, num_colors(iig_coloring))
        coloring.update(iig_coloring)

    # Nodes that interfere with nothing may not appear in any region graph
    # (isolated GIG nodes); give them color 0 so the coloring is total.
    for node in graphs.gig.nodes():
        coloring.setdefault(node, 0)
    if coloring and max_r == 0:
        max_r = 1
    boundary = graphs.boundary

    def palette_limit(node: Node) -> int:
        return max_pr if node in boundary else max_r

    def neighbor_colors(node: Node) -> Set[int]:
        return {
            coloring[nbr]
            for nbr in graphs.gig.neighbor_set(node)
            if nbr in coloring
        }

    def try_recolor(node: Node) -> bool:
        """Recolor ``node`` within its palette avoiding GIG neighbors."""
        used = neighbor_colors(node)
        for c in range(palette_limit(node)):
            if c != coloring[node] and c not in used:
                coloring[node] = c
                return True
        return False

    def try_recolor_neighbors(node: Node) -> bool:
        """Free some palette color for ``node`` by moving one neighbor."""
        used = neighbor_colors(node)
        for c in range(palette_limit(node)):
            if c == coloring[node] or c not in used:
                continue
            blockers = [
                nbr
                for nbr in graphs.gig.neighbors(node)
                if coloring.get(nbr) == c
            ]
            moved: List[Tuple[Node, int]] = []
            ok = True
            for blocker in blockers:
                old = coloring[blocker]
                b_used = neighbor_colors(blocker)
                choice = next(
                    (
                        bc
                        for bc in range(palette_limit(blocker))
                        if bc != old and bc not in b_used
                    ),
                    None,
                )
                if choice is None:
                    ok = False
                    break
                coloring[blocker] = choice
                moved.append((blocker, old))
            if ok and c not in neighbor_colors(node):
                coloring[node] = c
                return True
            for blocker, old in reversed(moved):
                coloring[blocker] = old
        return False

    def widen_for(node: Node) -> None:
        nonlocal max_pr, max_r
        if node in boundary:
            # New private color: shift every shared-range color up by one
            # so private colors stay the contiguous prefix [0, max_pr).
            for other, c in list(coloring.items()):
                if c >= max_pr:
                    coloring[other] = c + 1
            coloring[node] = max_pr
            max_pr += 1
            max_r = max(max_r + 1, max_pr)
        else:
            coloring[node] = max_r
            max_r += 1

    # Conflict-edge worklist.  Resolving one edge can only change colors,
    # never remove constraint edges, so we loop until a full pass is clean.
    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > len(coloring) + 10:
            raise AssertionError("region merge failed to converge")
        changed = False
        for a, b in graphs.gig.edges():
            if coloring[a] != coloring[b]:
                continue
            changed = True
            # Prefer to move an internal endpoint (wider palette, and a
            # widening there costs a shared register, not a private one).
            first, second = (a, b)
            if a in boundary and b not in boundary:
                first, second = b, a
            if try_recolor(first) or try_recolor(second):
                continue
            if try_recolor_neighbors(first) or try_recolor_neighbors(second):
                continue
            widen_for(first)

    return MergeResult(coloring=coloring, max_pr=max_pr, max_r=max_r)

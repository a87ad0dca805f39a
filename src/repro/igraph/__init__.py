"""Interference graphs and coloring.

* :mod:`repro.igraph.graph` -- a small deterministic undirected graph and
  the bit helpers of the mask kernels.
* :mod:`repro.igraph.coloring` -- DSATUR / simplify colorings, on masks
  and on graphs.
* :mod:`repro.igraph.interference` -- GIG, BIG and per-NSR IIG builders
  (section 3.2 of the paper).
* :mod:`repro.igraph.merge` -- region-wise coloring merge with
  conflict-edge resolution (paper Figure 7).
"""

from repro.igraph.graph import UndirectedGraph
from repro.igraph.coloring import (
    dsatur_color,
    min_color,
    num_colors,
    simplify_color,
    validate_coloring,
)
from repro.igraph.interference import InterferenceGraphs, build_interference
from repro.igraph.merge import MergeResult, merge_region_colorings

__all__ = [
    "UndirectedGraph",
    "dsatur_color",
    "simplify_color",
    "min_color",
    "num_colors",
    "validate_coloring",
    "InterferenceGraphs",
    "build_interference",
    "MergeResult",
    "merge_region_colorings",
]

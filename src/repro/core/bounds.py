"""Register-requirement bounds for one thread (paper section 5).

* ``MinR = RegPmax`` -- the maximum number of co-live ranges at any program
  point; reachable by live-range splitting (paper's lower-bound lemma).
* ``MinPR = RegPCSBmax`` -- the maximum number of ranges live across any
  single CSB (program entry included); reachable by moving values into
  private registers just around each CSB (Lemma 1).
* ``MaxPR`` / ``MaxR`` -- the region-merge upper bounds: registers needed
  *without any move insertion*, from coloring BIG and the IIGs separately
  and merging (paper Figure 7, :mod:`repro.igraph.merge`).

The merge's coloring is kept: it seeds the intra-thread allocator's initial
context.  The merge runs on the analysis' interference masks; the
set-based twin (``merge_region_colorings_reference``) is the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.analysis import ThreadAnalysis
from repro.igraph.merge import merge_region_colorings
from repro.ir.operands import Reg


@dataclass
class Bounds:
    """The four bounds plus the estimation coloring for one thread."""

    min_pr: int
    min_r: int
    max_pr: int
    max_r: int
    coloring: Dict[Reg, int]

    @property
    def max_sr(self) -> int:
        return self.max_r - self.max_pr

    def __str__(self) -> str:
        return (
            f"PR in [{self.min_pr}, {self.max_pr}], "
            f"R in [{self.min_r}, {self.max_r}]"
        )


def estimate_bounds(analysis: ThreadAnalysis) -> Bounds:
    """Compute all four bounds for one analysed thread.

    ``analysis`` must come from :func:`~repro.core.analysis.analyze_thread`
    (directly or through the analysis cache): the Figure-7 merge colors
    its interference masks.
    """
    min_r = analysis.liveness.reg_p_max()
    min_pr = analysis.liveness.reg_p_csb_max()
    merged = merge_region_colorings(analysis.graphs)
    max_pr = max(merged.max_pr, min_pr)
    max_r = max(merged.max_r, min_r, max_pr)
    return Bounds(
        min_pr=min_pr,
        min_r=min_r,
        max_pr=max_pr,
        max_r=max_r,
        coloring=merged.coloring,
    )

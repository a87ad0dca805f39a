"""Whole-PU baseline allocation and standalone register counts.

The paper's baseline splits the register file into equal disjoint windows
(32 registers per thread on the IXP1200) and runs an ordinary allocator
per thread; inter-thread balancing and sharing are impossible, so a
register-hungry thread spills even while its neighbors waste registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.baseline.chaitin import (
    DEFAULT_SPILL_BASE,
    ChaitinResult,
    chaitin_allocate,
)
from repro.core.analysis import ThreadAnalysis, analyze_thread
from repro.errors import AllocationError
from repro.igraph.coloring import min_color_masks, num_colors
from repro.ir.program import Program

#: Spill-area stride between threads so their slots never collide.
SPILL_AREA_STRIDE = 0x400


def single_thread_register_count(
    program: Program, analysis: "ThreadAnalysis" = None
) -> int:
    """Registers a standalone Chaitin allocation uses (no budget, no
    spills): the heuristic chromatic number of the interference graph.

    This is the first bar of the paper's Figure 14.  Pass a precomputed
    ``analysis`` of ``program`` to skip the re-analysis.  It must come
    from :func:`analyze_thread` (directly or through
    :mod:`repro.core.cache`): the GIG is colored on its interference
    masks.
    """
    if analysis is None:
        analysis = analyze_thread(program)
    masks = analysis.graphs.masks
    return num_colors(min_color_masks((1 << len(masks.regs)) - 1, masks.gig))


@dataclass
class BaselinePuAllocation:
    """Fixed-window baseline allocation for one PU."""

    results: List[ChaitinResult]
    window: int

    @property
    def programs(self) -> List[Program]:
        return [r.program for r in self.results]


def allocate_pu_baseline(
    programs: Sequence[Program], nreg: int = 128
) -> BaselinePuAllocation:
    """Allocate each thread into its fixed ``nreg / Nthd`` window.

    Thread ``i`` gets physical registers
    ``[i * window, (i + 1) * window)`` and its own spill area, exactly the
    no-sharing configuration the paper compares against.
    """
    nthd = len(programs)
    if nthd == 0:
        raise AllocationError("baseline needs at least one program")
    window = nreg // nthd
    results = [
        chaitin_allocate(
            program,
            k=window,
            phys_base=i * window,
            spill_base=DEFAULT_SPILL_BASE + i * SPILL_AREA_STRIDE,
        )
        for i, program in enumerate(programs)
    ]
    return BaselinePuAllocation(results=results, window=window)

"""Human-readable reports: live-range charts and NSR maps.

Debugging a register allocator is mostly staring at lifetimes.  These
helpers render a thread's analysis as monospace text:

* :func:`live_range_chart` -- one row per live range, one column per
  instruction; ``=`` marks occupied slots, ``|`` marks CSB columns, ``B``
  flags boundary ranges;
* :func:`nsr_map` -- the program listing annotated with its non-switch
  region ids and CSB markers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.analysis import ThreadAnalysis
from repro.ir.printer import format_instruction


def live_range_chart(
    analysis: ThreadAnalysis, max_ranges: Optional[int] = None
) -> str:
    """ASCII lifetime chart of every live range (sorted by first slot)."""
    program = analysis.program
    n = len(program.instrs)
    csb_cols = {i for i, ins in enumerate(program.instrs) if ins.is_csb}

    def row_for(reg) -> str:
        slots = analysis.slots[reg]
        cells = []
        for i in range(n):
            if i in slots:
                cells.append("=")
            elif i in csb_cols:
                cells.append("|")
            else:
                cells.append(".")
        return "".join(cells)

    ranges = sorted(
        analysis.all_regs,
        key=lambda r: (min(analysis.slots[r], default=0), str(r)),
    )
    if max_ranges is not None:
        ranges = ranges[:max_ranges]
    width = max((len(str(r)) for r in ranges), default=4)
    lines = [
        f"{'range'.ljust(width)}  K  {'lifetime (| = CSB column)'}",
    ]
    for reg in ranges:
        kind = "B" if reg in analysis.nsr.boundary else "i"
        lines.append(f"{str(reg).ljust(width)}  {kind}  {row_for(reg)}")
    return "\n".join(lines)


def nsr_map(analysis: ThreadAnalysis) -> str:
    """The program listing annotated with NSR membership."""
    program = analysis.program
    lines: List[str] = []
    for i, instr in enumerate(program.instrs):
        labels = "".join(f"{name}:\n" for name in program.labels_at(i))
        rid = analysis.nsr.nsr_of[i]
        tag = "CSB" if rid is None else f"N{rid:02d}"
        if labels:
            lines.append(labels.rstrip("\n"))
        lines.append(f"  {i:3} [{tag}] {format_instruction(instr)}")
    return "\n".join(lines)

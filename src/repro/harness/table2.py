"""Paper Table 2: move insertion in the extreme case.

Force each benchmark all the way down to its lower bounds --
``PR = RegPCSBmax`` private registers and ``R = RegPmax`` total -- and
count the ``mov`` instructions the splitting allocator inserts.  The paper
reports overheads mostly within 10% of the instruction count and argues
this is affordable compared to spilling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cache import get_cache
from repro.core.intra import IntraAllocator
from repro.harness.report import check_serial, text_table
from repro.suite.registry import BENCHMARKS, load


@dataclass
class Table2Row:
    name: str
    instructions: int
    min_pr: int
    min_r: int
    max_pr: int
    max_r: int
    moves: int

    @property
    def overhead(self) -> float:
        return self.moves / self.instructions if self.instructions else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "overhead": self.overhead}


def _table2_row(name: str) -> Table2Row:
    """One Table-2 row."""
    program = load(name)
    analysis, bounds = get_cache().analyze_with_bounds(program)
    allocator = IntraAllocator(analysis, bounds)
    context = allocator.realize(bounds.min_pr, bounds.min_r - bounds.min_pr)
    return Table2Row(
        name=name,
        instructions=len(analysis.program.instrs),
        min_pr=bounds.min_pr,
        min_r=bounds.min_r,
        max_pr=bounds.max_pr,
        max_r=bounds.max_r,
        moves=context.move_cost(),
    )


def run_table2(
    names: Optional[Sequence[str]] = None, jobs: int = 1
) -> List[Table2Row]:
    """Realize the minimal allocation for each benchmark, counting moves."""
    check_serial(jobs)
    return [_table2_row(name) for name in names or BENCHMARKS]


def render_table2(rows: Sequence[Table2Row]) -> str:
    headers = [
        "benchmark", "#instr", "MinPR", "MinR", "MaxPR", "MaxR",
        "#moves", "overhead%",
    ]
    table = [
        (
            r.name, r.instructions, r.min_pr, r.min_r, r.max_pr, r.max_r,
            r.moves, 100.0 * r.overhead,
        )
        for r in rows
    ]
    return (
        "Table 2: moves inserted at the minimal register allocation\n"
        + text_table(headers, table)
    )

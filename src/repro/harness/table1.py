"""Paper Table 1: properties of the benchmark applications.

Per benchmark: code size, average cycles per main-loop iteration (measured
standalone on the simulator), context-switch instruction count, number of
live ranges, the pressure lower bounds ``RegPmax`` / ``RegPCSBmax``, the
coloring upper bounds ``MaxR`` / ``MaxPR``, and NSR count / average size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cache import get_cache
from repro.harness.report import check_serial, text_table
from repro.sim.run import run_reference
from repro.suite.registry import BENCHMARKS, load


@dataclass
class Table1Row:
    name: str
    instructions: int
    cycles_per_iter: float
    ctx_instrs: int
    live_ranges: int
    reg_p_max: int
    reg_p_csb_max: int
    max_r: int
    max_pr: int
    n_nsr: int
    avg_nsr_size: float

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _table1_row(name: str, packets: int) -> Table1Row:
    """One Table-1 row."""
    program = load(name)
    analysis, bounds = get_cache().analyze_with_bounds(program)
    ref = run_reference([program], packets_per_thread=packets)
    return Table1Row(
        name=name,
        instructions=len(program.instrs),
        cycles_per_iter=ref.thread_cpi(0),
        ctx_instrs=program.count_csb(),
        live_ranges=len(analysis.all_regs),
        reg_p_max=bounds.min_r,
        reg_p_csb_max=bounds.min_pr,
        max_r=bounds.max_r,
        max_pr=bounds.max_pr,
        n_nsr=analysis.nsr.n_regions,
        avg_nsr_size=analysis.nsr.average_region_size(),
    )


def run_table1(
    names: Optional[Sequence[str]] = None, packets: int = 8, jobs: int = 1
) -> List[Table1Row]:
    """Compute every Table-1 row (all benchmarks by default)."""
    check_serial(jobs)
    return [_table1_row(name, packets) for name in names or BENCHMARKS]


def render_table1(rows: Sequence[Table1Row]) -> str:
    headers = [
        "benchmark", "#instr", "cyc/iter", "#CTX", "#ranges",
        "RegPmax", "RegPCSBmax", "MaxR", "MaxPR", "#NSR", "avgNSR",
    ]
    table = [
        (
            r.name, r.instructions, r.cycles_per_iter, r.ctx_instrs,
            r.live_ranges, r.reg_p_max, r.reg_p_csb_max, r.max_r,
            r.max_pr, r.n_nsr, r.avg_nsr_size,
        )
        for r in rows
    ]
    return "Table 1: benchmark applications\n" + text_table(headers, table)

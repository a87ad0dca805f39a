"""Paper Table 3: the three asymmetric (ARA) scenarios.

Each scenario runs four benchmark threads on one PU twice:

* **Reg Spill** -- the baseline: each thread allocated alone into a fixed
  32-register window by the Chaitin allocator, spilling as needed (spill
  loads/stores are context-switch boundaries at ~20 cycles each);
* **Reg Sharing** -- our inter-thread allocator over the full 128-register
  file, spill-free by construction, with any moves the balancing loop had
  to insert.

Reported per thread: PR/SR assigned, live ranges after allocation, CSB
counts under both allocations, and average cycles per packet iteration
under both, with the percentage change.  The paper's shape: 18-24% speedup
for the register-hungry threads, only 1-4% slowdown for the donors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.baseline.single_thread import allocate_pu_baseline
from repro.core.pipeline import allocate_programs
from repro.harness.report import check_serial, text_table
from repro.ir.program import Program
from repro.sim.run import outputs_match, run_reference, run_threads
from repro.suite.registry import load

#: The paper's three scenarios (thread order matters for reporting).
SCENARIOS: Dict[str, Tuple[str, str, str, str]] = {
    "md5+fir2dim": ("md5", "md5", "fir2dim", "fir2dim"),
    "l2l3fwd+md5": ("l2l3fwd_recv", "l2l3fwd_send", "md5", "md5"),
    "wraps+fir2dim+frag": ("wraps_recv", "wraps_send", "fir2dim", "frag"),
}


@dataclass
class Table3Thread:
    name: str
    pr: int
    sr: int
    live_ranges: int
    ctx_spill: int
    ctx_sharing: int
    cycles_spill: float
    cycles_sharing: float

    @property
    def cycle_change(self) -> float:
        """Relative cycle change, negative = faster with sharing."""
        if self.cycles_spill == 0:
            return 0.0
        return self.cycles_sharing / self.cycles_spill - 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "cycle_change": self.cycle_change}


@dataclass
class Table3Scenario:
    label: str
    threads: List[Table3Thread]
    verified: bool
    total_moves: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "verified": self.verified,
            "total_moves": self.total_moves,
            "threads": [t.to_dict() for t in self.threads],
        }


def run_scenario(
    label: str,
    names: Sequence[str],
    nreg: int = 128,
    packets: int = 16,
) -> Table3Scenario:
    """Run one ARA scenario end to end (allocate, simulate, compare)."""
    programs = [load(n) for n in names]

    baseline = allocate_pu_baseline([p.copy() for p in programs], nreg=nreg)
    shared = allocate_programs(programs, nreg=nreg)

    # Steady-state measurement: per-thread service time over a fixed
    # window of iterations (warmup excluded, queues never drained during
    # the window), so runs are exactly comparable.
    measure = max(packets - 8, 1)
    run_spill = run_threads(
        baseline.programs,
        packets_per_thread=packets,
        nreg=nreg,
        measure_iterations=measure,
    )
    run_share = run_threads(
        shared.programs,
        packets_per_thread=packets,
        nreg=nreg,
        assignment=shared.assignment,
        measure_iterations=measure,
    )
    few = max(4, packets // 4)
    ref = run_reference(programs, packets_per_thread=few)
    full_share = run_threads(
        shared.programs,
        packets_per_thread=few,
        nreg=nreg,
        assignment=shared.assignment,
    )
    full_spill = run_threads(
        baseline.programs, packets_per_thread=few, nreg=nreg
    )
    verified = outputs_match(ref, full_share) and outputs_match(
        ref, full_spill
    )

    threads: List[Table3Thread] = []
    for tid, name in enumerate(names):
        alloc = shared.inter.threads[tid]
        threads.append(
            Table3Thread(
                name=name,
                pr=alloc.pr,
                sr=alloc.sr,
                live_ranges=len(alloc.context.pieces),
                ctx_spill=baseline.programs[tid].count_csb(),
                ctx_sharing=shared.programs[tid].count_csb(),
                cycles_spill=run_spill.thread_busy_cpi(tid),
                cycles_sharing=run_share.thread_busy_cpi(tid),
            )
        )
    return Table3Scenario(
        label=label,
        threads=threads,
        verified=verified,
        total_moves=shared.total_moves,
    )


def run_table3(packets: int = 16, jobs: int = 1) -> List[Table3Scenario]:
    """Run the three Table-3 scenarios."""
    check_serial(jobs)
    return [
        run_scenario(label, names, packets=packets)
        for label, names in SCENARIOS.items()
    ]


def render_table3(scenarios: Sequence[Table3Scenario]) -> str:
    blocks: List[str] = []
    for sc in scenarios:
        headers = [
            "thread", "PR", "SR", "#ranges", "#CTX spill", "#CTX share",
            "cyc/iter spill", "cyc/iter share", "change%",
        ]
        rows = [
            (
                t.name, t.pr, t.sr, t.live_ranges, t.ctx_spill,
                t.ctx_sharing, t.cycles_spill, t.cycles_sharing,
                100.0 * t.cycle_change,
            )
            for t in sc.threads
        ]
        block = (
            f"Table 3 scenario: {sc.label} "
            f"(moves inserted: {sc.total_moves}, "
            f"outputs verified: {sc.verified})\n"
        )
        block += text_table(headers, rows)
        blocks.append(block)
    return "\n\n".join(blocks)

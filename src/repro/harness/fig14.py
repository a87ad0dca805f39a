"""Paper Figure 14: SRA register requirements with a zero-move budget.

For each benchmark running identically on all four threads of a PU:

* bar 1 -- registers a standalone Chaitin allocation uses (``R_single``);
* bars 2/3 -- the private / shared split ``(PR, SR)`` found by the
  inter-thread allocator when it reduces only while reductions are free
  (no move instructions), i.e. the smallest no-move requirement.

The headline number is the total saving of ``Nthd*PR + SR`` against
``Nthd * R_single`` (the paper reports a 24% average).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cache import get_cache
from repro.baseline.single_thread import single_thread_register_count
from repro.harness.report import check_serial, text_table
from repro.suite.registry import BENCHMARKS, load


@dataclass
class Fig14Row:
    name: str
    single_thread_regs: int
    pr: int
    sr: int
    nthd: int

    @property
    def multithread_total(self) -> int:
        return self.nthd * self.pr + self.sr

    @property
    def baseline_total(self) -> int:
        return self.nthd * self.single_thread_regs

    @property
    def saving(self) -> float:
        if self.baseline_total == 0:
            return 0.0
        return 1.0 - self.multithread_total / self.baseline_total

    def to_dict(self) -> Dict[str, Any]:
        return {
            **asdict(self),
            "multithread_total": self.multithread_total,
            "baseline_total": self.baseline_total,
            "saving": self.saving,
        }


def _fig14_row(name: str, nthd: int, nreg: int) -> Fig14Row:
    """One Figure-14 data point.

    The ``nthd`` threads run *the same* program, so it is loaded and
    analysed exactly once and the :class:`ThreadAnalysis` is shared by
    every thread slot -- the inter-thread allocator only reads analyses
    (each thread gets its own :class:`AllocContext`), which
    ``tests/test_harness_fig14.py`` pins down.  The zero-cost answer is
    read off the kernel's shared descent
    (:meth:`~repro.core.cache.AnalysisCache.descent`), byte-identical to
    a fresh ``zero_cost_only`` run, so fig14 shares one trajectory with
    every other budget query on the same mix.
    """
    program = load(name)
    analysis = get_cache().analyze(program)
    single = single_thread_register_count(program, analysis=analysis)
    result = get_cache().descent([program] * nthd).zero_cost_result(nreg)
    prs = sorted(t.pr for t in result.threads)
    return Fig14Row(
        name=name,
        single_thread_regs=single,
        pr=prs[-1],
        sr=result.sgr,
        nthd=nthd,
    )


def run_fig14(
    names: Optional[Sequence[str]] = None,
    nthd: int = 4,
    nreg: int = 128,
    jobs: int = 1,
) -> List[Fig14Row]:
    """Compute every Figure-14 data point (all benchmarks by default)."""
    check_serial(jobs)
    return [_fig14_row(name, nthd, nreg) for name in names or BENCHMARKS]


def average_saving(rows: Sequence[Fig14Row]) -> float:
    if not rows:
        return 0.0
    return sum(r.saving for r in rows) / len(rows)


def render_fig14(rows: Sequence[Fig14Row]) -> str:
    headers = [
        "benchmark", "single-thread R", "PR", "SR",
        "4*R(single)", "4*PR+SR", "saving%",
    ]
    table = [
        (
            r.name, r.single_thread_regs, r.pr, r.sr,
            r.baseline_total, r.multithread_total, 100.0 * r.saving,
        )
        for r in rows
    ]
    out = "Figure 14: SRA register requirements (zero-move budget)\n"
    out += text_table(headers, table)
    out += f"\naverage total register saving: {100.0 * average_saving(rows):.1f}%"
    return out

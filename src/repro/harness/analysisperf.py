"""Cold-analysis throughput: the dense bitset kernels vs the reference.

Per suite kernel, :func:`~repro.core.analysis.analyze_thread` (the dense
kernels) is timed against
:func:`~repro.core.analysis.analyze_thread_reference` (the set-based
construction), best of ``repeats`` runs, no caching anywhere.  This is
the work a cache miss pays (web renaming, liveness, NSRs, interference
graphs, the slot/conflict model).

Fidelity is checked harder than speed: per kernel the two analyses are
reduced to a canonical SHA-256 digest over every comparable
``ThreadAnalysis`` field (orders included) and the digests must match.
Any mismatch invalidates the speedups.  Whole allocations on the two
implementations are compared in ``tests/test_dense.py``.  ``repro bench
analysis`` or ``pytest benchmarks/bench_analysis.py --benchmark-only
-s`` regenerates ``benchmarks/out/BENCH_analysis.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.analysis import (
    ThreadAnalysis,
    analyze_thread,
    analyze_thread_reference,
)
from repro.harness.report import text_table
from repro.suite.registry import BENCHMARKS, load


def _canon(obj: Any) -> Any:
    """JSON-serializable canonical form: registers to strings, sets to
    sorted lists, dict keys stringified and sorted by the dump below."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(str(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def analysis_digest(an: ThreadAnalysis) -> str:
    """Canonical SHA-256 over every comparable analysis field.

    Iteration orders of the ordered fields (occupant tuples, flow edges,
    ``conflicts_at`` pair lists) are part of the digest, so two
    implementations only agree when they are bit-identical, not merely
    set-equal.
    """
    graphs = an.graphs
    payload = {
        "program": an.program.fingerprint(),
        "live_in": _canon(an.liveness.live_in),
        "live_out": _canon(an.liveness.live_out),
        "boundary": _canon(an.nsr.boundary),
        "internal": _canon(an.nsr.internal),
        "gig": _canon(graphs.gig.edges()),
        "big": _canon(graphs.big.edges()),
        "iigs": {
            str(rid): _canon(g.edges()) for rid, g in graphs.iigs.items()
        },
        "slots": _canon(an.slots),
        "flow_edges": _canon(an.flow_edges),
        "occupants": _canon(an.occupants),
        "live_across": _canon(an.live_across),
        "csb_slots_of": _canon(an.csb_slots_of),
        "defs_at": _canon(an.defs_at),
        "dying_at": _canon(an.dying_at),
        "conflicts_at": _canon(an.conflicts_at),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class AnalysisBenchReport:
    """Everything ``BENCH_analysis.json`` carries."""

    rows: List[Dict[str, Any]]
    analysis_reference_s: float
    analysis_dense_s: float
    repeats: int
    digests_identical: bool
    kernels: List[str] = field(default_factory=list)

    @property
    def analysis_speedup(self) -> float:
        return (
            self.analysis_reference_s / self.analysis_dense_s
            if self.analysis_dense_s
            else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernels": self.kernels,
            "repeats": self.repeats,
            "analysis_reference_s": self.analysis_reference_s,
            "analysis_dense_s": self.analysis_dense_s,
            "analysis_speedup": self.analysis_speedup,
            "digests_identical": self.digests_identical,
            "rows": self.rows,
        }


def _best(fn, repeats: int) -> float:
    out = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out = min(out, time.perf_counter() - start)
    return out


def run_analysis_bench(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> AnalysisBenchReport:
    """Measure both implementations over the suite (see module docstring)."""
    names = list(names or BENCHMARKS)
    impls = (
        ("reference", analyze_thread_reference),
        ("dense", analyze_thread),
    )
    rows: List[Dict[str, Any]] = []
    totals = {"reference": 0.0, "dense": 0.0}
    digests_identical = True
    for name in names:
        program = load(name)
        row: Dict[str, Any] = {"name": name}
        digests: Dict[str, str] = {}
        for impl, analyze in impls:
            digests[impl] = analysis_digest(analyze(program))
            seconds = _best(lambda: analyze(program), repeats)
            row[f"{impl}_s"] = seconds
            totals[impl] += seconds
        row["speedup"] = (
            row["reference_s"] / row["dense_s"] if row["dense_s"] else 0.0
        )
        row["digest"] = digests["dense"]
        row["digest_identical"] = digests["reference"] == digests["dense"]
        digests_identical &= row["digest_identical"]
        rows.append(row)

    return AnalysisBenchReport(
        rows=rows,
        analysis_reference_s=totals["reference"],
        analysis_dense_s=totals["dense"],
        repeats=repeats,
        digests_identical=digests_identical,
        kernels=names,
    )


def render_analysis(report: AnalysisBenchReport) -> str:
    headers = ["kernel", "reference ms", "dense ms", "speedup", "identical"]
    rows = [
        (
            r["name"],
            f"{r['reference_s'] * 1e3:.2f}",
            f"{r['dense_s'] * 1e3:.2f}",
            f"{r['speedup']:.2f}x",
            "yes" if r["digest_identical"] else "NO",
        )
        for r in report.rows
    ]
    out = (
        f"Cold-analysis throughput: dense bitset kernels vs reference "
        f"(best of {report.repeats})\n"
    )
    out += text_table(headers, rows)
    out += (
        f"\nanalysis stage: reference {report.analysis_reference_s:.3f}s"
        f"  dense {report.analysis_dense_s:.3f}s"
        f"  ({report.analysis_speedup:.2f}x)"
        f"\nidentical analyses: {report.digests_identical}"
    )
    return out

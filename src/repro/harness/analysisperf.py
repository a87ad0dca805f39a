"""Cold-analysis throughput: the dense bitset kernels vs the reference.

Per suite kernel, :func:`~repro.core.analysis.analyze_thread` (the dense
kernels) is timed against
:func:`~repro.core.analysis.analyze_thread_reference` (the set-based
construction) by :func:`~repro.harness.report.measure`, no caching
anywhere.  This is the work a cache miss pays (web renaming, liveness,
NSRs, interference graphs, the slot/conflict model).

Fidelity is checked harder than speed: per kernel the last timed
analysis of each implementation is reduced to a canonical SHA-256
digest over every comparable ``ThreadAnalysis`` field (orders included)
and the digests must match.  Any mismatch invalidates the speedups.
Whole allocations on the two implementations are compared in
``tests/test_dense.py``.  ``repro bench analysis`` or ``pytest
benchmarks/bench_analysis.py --benchmark-only -s`` regenerates
``benchmarks/out/BENCH_analysis.json``.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.core.analysis import (
    ThreadAnalysis,
    analyze_thread,
    analyze_thread_reference,
)
from repro.harness.report import REPEATS, measure, ratio, text_table
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
    set-equal.  A dense-built analysis builds its graphs from its
    interference masks here, outside the timed region.
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


def run_analysis_bench(
    names: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Measure both implementations over the suite (see module
    docstring); returns the ``BENCH_analysis.json`` payload."""
    names = list(names or BENCHMARKS)
    impls = (
        ("reference", analyze_thread_reference),
        ("dense", analyze_thread),
    )
    rows: List[Dict[str, Any]] = []
    for name in names:
        program = load(name)
        row: Dict[str, Any] = {"name": name}
        digests: Dict[str, str] = {}
        for impl, analyze in impls:
            row[f"{impl}_s"], analyses = measure(partial(analyze, program))
            digests[impl] = analysis_digest(analyses[-1])
        row["speedup"] = ratio(row["reference_s"], row["dense_s"])
        row["digest"] = digests["dense"]
        row["digest_identical"] = digests["reference"] == digests["dense"]
        rows.append(row)
    reference_s = sum(r["reference_s"] for r in rows)
    dense_s = sum(r["dense_s"] for r in rows)
    return {
        "kernels": names,
        "repeats": REPEATS,
        "analysis_reference_s": reference_s,
        "analysis_dense_s": dense_s,
        "analysis_speedup": ratio(reference_s, dense_s),
        "digests_identical": all(r["digest_identical"] for r in rows),
        "rows": rows,
    }


def render_analysis(data: Dict[str, Any]) -> str:
    headers = ["kernel", "reference ms", "dense ms", "speedup", "identical"]
    rows = [
        (
            r["name"],
            f"{r['reference_s'] * 1e3:.2f}",
            f"{r['dense_s'] * 1e3:.2f}",
            f"{r['speedup']:.2f}x",
            "yes" if r["digest_identical"] else "NO",
        )
        for r in data["rows"]
    ]
    out = (
        f"Cold-analysis throughput: dense bitset kernels vs reference "
        f"(best of {data['repeats']})\n"
    )
    out += text_table(headers, rows)
    out += (
        f"\nanalysis stage: reference {data['analysis_reference_s']:.3f}s"
        f"  dense {data['analysis_dense_s']:.3f}s"
        f"  ({data['analysis_speedup']:.2f}x)"
        f"\nidentical analyses: {data['digests_identical']}"
    )
    return out

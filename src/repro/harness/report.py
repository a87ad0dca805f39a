"""Aligned plain-text tables for experiment output, the one timing
primitive the throughput benches share, and the one argument check the
paper's four ``run_*`` harnesses share."""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Timed calls per measurement: every bench reports the best of them.
REPEATS = 3


def measure(
    fn: Callable[[], Any], setup: Optional[Callable[[], None]] = None
) -> Tuple[float, List[Any]]:
    """Time :data:`REPEATS` calls of ``fn``; returns ``(best_s, results)``.

    Before each call ``setup`` (when given) runs and then a full
    collection, so neither the reset nor garbage left by the previous
    call lands in the timed region.  ``results`` holds every call's
    return value in call order: the benches compare all of them, not
    just one, before they vouch for a ratio of two timings.
    """
    best, results = float("inf"), []
    for _ in range(REPEATS):
        if setup is not None:
            setup()
        gc.collect()
        start = time.perf_counter()
        results.append(fn())
        best = min(best, time.perf_counter() - start)
    return best, results


def ratio(a: float, b: float) -> float:
    """``a / b``, or 0.0 when ``b`` is zero (a rate or speedup over an
    interval too short to time)."""
    return a / b if b else 0.0


def text_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as an aligned monospace table with a rule under the
    header.  Numbers are right-aligned, text left-aligned."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [
        max(len(r[c]) for r in cells) for c in range(len(headers))
    ]
    numeric = [
        all(_is_number(row[c]) for row in rows) if rows else False
        for c in range(len(headers))
    ]

    def render_row(r: Sequence[str], force_left: bool = False) -> str:
        out = []
        for c, v in enumerate(r):
            if numeric[c] and not force_left:
                out.append(v.rjust(widths[c]))
            else:
                out.append(v.ljust(widths[c]))
        return "  ".join(out).rstrip()

    lines = [render_row(cells[0], force_left=True)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(r) for r in cells[1:])
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return "n/a" if math.isnan(v) else f"{v:.1f}"
    return str(v)


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_serial(jobs: int) -> None:
    """Reject any ``jobs`` but 1: the harnesses run their rows serially.

    The keyword stays on ``run_table1/2/3`` and ``run_fig14`` only
    because ``perfbench/child.py`` still passes ``jobs=1``.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (rows run serially), got {jobs!r}")

"""The regression sentinel: per-metric trend reports over the run ledger.

Five PRs of performance work are banked in this repo -- the fast engine
(~5.8x), the warm allocation cache (~6.7x), the dense analysis kernels
(~15.4x) -- and until now nothing *watched* them.  This module reads two
sources:

* the committed ``benchmarks/out/BENCH_*.json`` snapshots (the
  reproducible reference measurements, one point per bench), and
* the append-only run ledger (:mod:`repro.obs.ledger`), which
  accumulates one row per benchmark run across sessions and machines,

extracts the **watched metrics** (:data:`WATCHED`: speedups, cycle
counts, move counts, register savings), and renders a per-metric
trajectory with a regression verdict.  ``repro bench trend --gate``
turns the verdict into an exit code, making it a CI gate.

The gate is noise-aware: the baseline is the *median* of all prior
points, and the effective threshold is the larger of the requested
``--threshold`` percentage and twice the relative median-absolute-
deviation of those prior points -- a metric that historically jitters
by 15% does not alarm at a 10% dip.  A metric with fewer than two
points is reported but never gated (there is nothing to compare).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

SCHEMA_TREND = "repro.trend/1"

PathLike = Union[str, pathlib.Path]

#: Watched metric -> direction of goodness.  ``higher`` regresses when
#: the latest value drops below baseline, ``lower`` when it climbs.
WATCHED: Dict[str, str] = {
    "sim.speedup": "higher",            # fast engine vs reference (perf)
    "sim.fast_ips": "higher",           # fast-engine instructions/s
    "alloc.warm_speedup": "higher",     # warm cache vs cold pipeline
    "alloc.descent_speedup": "higher",  # shared descent vs per-budget
    "analysis.speedup": "higher",       # dense analysis vs reference
    "table1.cycles_per_iter": "lower",  # suite-total simulated cycles/iter
    "table2.total_moves": "lower",      # allocator move instructions
    "table2.max_overhead": "lower",     # worst per-kernel move overhead
    "table3.cycle_change": "lower",     # mean MRA cycle change (sharing)
    "fig14.avg_saving": "higher",       # mean register saving vs baseline
}


#: Each bench's identity flags: a false one means the two computations
#: the bench timed disagreed, so the ratio it vouches for is no speedup.
IDENTITY_FLAGS: Dict[str, Tuple[str, ...]] = {
    "perf": ("stats_match",), "analysis": ("digests_identical",),
    "alloc": ("identical", "descent_identical"),
}


def diverged(bench: str, data: Any) -> List[str]:
    """The identity flags ``data`` carries as false (``perf`` keeps its
    flag in ``summary``); ``repro bench`` fails such a run."""
    if bench == "perf" and isinstance(data, dict):
        data = data.get("summary")
    flags = IDENTITY_FLAGS.get(bench, ()) if isinstance(data, dict) else ()
    return [f for f in flags if data.get(f) is False]


def watched_from_bench(bench: str, data: Any) -> Dict[str, float]:
    """Extract the watched scalar metrics from one bench's ``data``.

    ``bench`` is the artifact name (``perf``, ``alloc``, ``analysis``,
    ``table1``, ``table2``, ``table3`` or ``table3_<pair>``, ``fig14``);
    ``data`` the same payload that goes into ``BENCH_<name>.json``.
    Unknown benches (the ablations) yield ``{}`` -- they are explored,
    not gated; a ratio whose identity flag is false is left out.
    """
    out: Dict[str, float] = {}
    bad = diverged(bench, data)
    try:
        if bench == "perf":
            summary = data["summary"]
            if not bad:
                out["sim.speedup"] = float(summary["speedup"])
            out["sim.fast_ips"] = float(summary["fast_ips"])
        elif bench == "alloc":
            if "identical" not in bad:
                out["alloc.warm_speedup"] = float(data["warm_speedup"])
            # Older BENCH_alloc.json payloads predate the descent
            # section; ``.get`` keeps their warm metric watched instead
            # of voiding the whole extraction.  The descent ratio needs
            # its flag present as well as true.
            descent = data.get("descent_speedup")
            if isinstance(descent, (int, float)) and data.get(
                "descent_identical", False
            ):
                out["alloc.descent_speedup"] = float(descent)
        elif bench == "analysis":
            if not bad:
                out["analysis.speedup"] = float(data["analysis_speedup"])
        elif bench == "table1":
            out["table1.cycles_per_iter"] = float(
                sum(row["cycles_per_iter"] for row in data)
            )
        elif bench == "table2":
            out["table2.total_moves"] = float(
                sum(row["moves"] for row in data)
            )
            out["table2.max_overhead"] = float(
                max(row["overhead"] for row in data)
            )
        elif bench == "table3" or bench.startswith("table3_"):
            scenarios = data if isinstance(data, list) else [data]
            changes = [
                t["cycle_change"] for sc in scenarios for t in sc["threads"]
            ]
            if changes:
                out["table3.cycle_change"] = float(
                    sum(changes) / len(changes)
                )
        elif bench == "fig14":
            savings = [row["saving"] for row in data]
            if savings:
                out["fig14.avg_saving"] = float(sum(savings) / len(savings))
    except (KeyError, TypeError, ValueError):
        # A bench whose shape moved on is simply not watched until the
        # extractor catches up; the sentinel must never crash a run.
        return {}
    return out


@dataclass
class TrendPoint:
    """One observation of one watched metric."""

    value: float
    source: str  #: ``"committed"`` (BENCH_*.json) or ``"ledger"``
    ts: Optional[float] = None
    commit: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "source": self.source,
            "ts": self.ts,
            "commit": self.commit,
        }


@dataclass
class MetricTrend:
    """The trajectory and verdict for one watched metric."""

    metric: str
    direction: str
    points: List[TrendPoint] = field(default_factory=list)
    baseline: Optional[float] = None  #: median of all points before latest
    latest: Optional[float] = None
    change_pct: Optional[float] = None  #: latest vs baseline, signed
    threshold_pct: float = 0.0  #: effective (noise-widened) threshold
    regressed: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "baseline": self.baseline,
            "latest": self.latest,
            "change_pct": self.change_pct,
            "threshold_pct": self.threshold_pct,
            "regressed": self.regressed,
            "points": [p.to_dict() for p in self.points],
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def load_committed(
    out_dir: PathLike = pathlib.Path("benchmarks") / "out",
) -> Dict[str, List[TrendPoint]]:
    """Watched metrics from every committed ``BENCH_*.json`` snapshot."""
    points: Dict[str, List[TrendPoint]] = {}
    directory = pathlib.Path(out_dir)
    if not directory.is_dir():
        return points
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
            bench = doc["bench"]
            metrics = watched_from_bench(bench, doc["data"])
        except (ValueError, KeyError, TypeError):
            continue
        for name, value in metrics.items():
            points.setdefault(name, []).append(
                TrendPoint(value=value, source="committed")
            )
    return points


def build_trends(
    ledger_rows: Sequence[Mapping[str, Any]],
    committed: Optional[Mapping[str, List[TrendPoint]]] = None,
    threshold_pct: float = 10.0,
) -> List[MetricTrend]:
    """Assemble per-metric trajectories and verdicts.

    The series for each metric is the committed point(s) followed by the
    ledger points in append order; the last point is "latest", the rest
    the history the baseline is computed from.
    """
    series: Dict[str, List[TrendPoint]] = {
        name: list(pts) for name, pts in (committed or {}).items()
    }
    for row in ledger_rows:
        for name, value in (row.get("metrics") or {}).items():
            if name not in WATCHED or not isinstance(value, (int, float)):
                continue
            series.setdefault(name, []).append(
                TrendPoint(
                    value=float(value),
                    source="ledger",
                    ts=row.get("ts"),
                    commit=row.get("commit"),
                )
            )

    trends: List[MetricTrend] = []
    for metric in sorted(series):
        direction = WATCHED.get(metric, "higher")
        points = series[metric]
        trend = MetricTrend(metric=metric, direction=direction, points=points)
        if points:
            trend.latest = points[-1].value
        if len(points) >= 2:
            prior = [p.value for p in points[:-1]]
            baseline = _median(prior)
            trend.baseline = baseline
            if baseline:
                mad = _median([abs(v - baseline) for v in prior])
                noise_pct = 100.0 * 2.0 * mad / abs(baseline)
                trend.threshold_pct = max(threshold_pct, noise_pct)
                trend.change_pct = 100.0 * (trend.latest - baseline) / abs(
                    baseline
                )
                if direction == "higher":
                    trend.regressed = trend.change_pct < -trend.threshold_pct
                else:
                    trend.regressed = trend.change_pct > trend.threshold_pct
        trends.append(trend)
    return trends


def run_trend(
    ledger_path: Optional[PathLike] = None,
    out_dir: PathLike = pathlib.Path("benchmarks") / "out",
    threshold_pct: float = 10.0,
) -> List[MetricTrend]:
    """Read the ledger + committed snapshots and build every trend."""
    from repro.obs import ledger

    rows = ledger.read(ledger_path)
    return build_trends(
        rows, load_committed(out_dir), threshold_pct=threshold_pct
    )


def trend_report(
    trends: Sequence[MetricTrend], threshold_pct: float
) -> Dict[str, Any]:
    """The JSON artifact (``schema: repro.trend/1``) for a trend run."""
    return {
        "schema": SCHEMA_TREND,
        "threshold_pct": threshold_pct,
        "regressions": [t.metric for t in trends if t.regressed],
        "metrics": [t.to_dict() for t in trends],
    }


def render_trend(trends: Sequence[MetricTrend]) -> str:
    """The human-readable trajectory table."""
    from repro.harness.report import text_table

    headers = [
        "metric", "dir", "points", "baseline", "latest",
        "change%", "thresh%", "status",
    ]
    rows = []
    for t in trends:
        gated = t.baseline is not None and t.change_pct is not None
        rows.append(
            (
                t.metric,
                t.direction,
                len(t.points),
                "n/a" if t.baseline is None else f"{t.baseline:.4g}",
                "n/a" if t.latest is None else f"{t.latest:.4g}",
                "n/a" if t.change_pct is None else f"{t.change_pct:+.1f}",
                f"{t.threshold_pct:.1f}" if gated else "n/a",
                "REGRESSED" if t.regressed else ("ok" if gated else "n/a"),
            )
        )
    regressions = [t.metric for t in trends if t.regressed]
    verdict = (
        f"REGRESSIONS: {', '.join(regressions)}"
        if regressions
        else "no regressions"
    )
    return (
        "Watched-metric trend (committed BENCH_*.json + run ledger)\n"
        + text_table(headers, rows)
        + f"\n{verdict}"
    )

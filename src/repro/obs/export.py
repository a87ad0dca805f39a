"""JSON / JSONL writers plus standard exporters for telemetry artifacts.

Everything funnels through :func:`to_jsonable`, which knows dataclasses,
mappings, sequences, and the awkward floats (NaN/inf become ``None`` so
the output is *strict* JSON -- ``jq`` and browsers both choke on bare
``NaN``).

Document shapes leaving this module:

* ``write_jsonl`` -- one event dict per line, the ``--trace-json`` format;
* :func:`run_snapshot` -- the combined ``--metrics`` document: phase
  timings, per-greedy-step inter-allocator events, simulator cycle
  accounting, and the metric registry snapshot;
* :func:`bench_snapshot` -- ``BENCH_<name>.json`` trajectory files written
  next to the text artifacts under ``benchmarks/out/``;
* :func:`to_prometheus` -- the metric registry in the Prometheus text
  exposition format (the CLI's ``--prom`` flag), histograms expanded to
  ``_bucket``/``_sum``/``_count`` with cumulative ``le`` buckets;
* :func:`to_chrome_trace` -- the span tree as Chrome trace-event JSON
  (the CLI's ``--trace-chrome`` flag), loadable in ``chrome://tracing``
  and Perfetto.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re
from typing import Any, Dict, Iterable, List, Mapping, Union

SCHEMA_RUN = "repro.obs/1"
SCHEMA_BENCH = "repro.bench/1"

PathLike = Union[str, pathlib.Path]


def to_jsonable(obj: Any) -> Any:
    """Convert ``obj`` into strict-JSON-compatible plain data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def write_json(path: PathLike, payload: Any, indent: int = 2) -> pathlib.Path:
    """Write ``payload`` as pretty-printed strict JSON; returns the path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(to_jsonable(payload), indent=indent, allow_nan=False)
        + "\n"
    )
    return out


def write_jsonl(
    path: PathLike, rows: Iterable[Mapping[str, Any]]
) -> pathlib.Path:
    """Write ``rows`` as JSON Lines (one compact object per line)."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        for row in rows:
            fh.write(
                json.dumps(
                    to_jsonable(row),
                    separators=(",", ":"),
                    allow_nan=False,
                )
            )
            fh.write("\n")
    return out


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str, prefix: str = "repro_") -> str:
    """A dotted metric name as a valid Prometheus metric name."""
    sanitized = _PROM_BAD_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _prom_labels(pairs, extra: Iterable = ()) -> str:
    items = list(pairs) + list(extra)
    if not items:
        return ""
    def esc(v: str) -> str:
        return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return "{" + ",".join(f'{k}="{esc(str(v))}"' for k, v in items) + "}"


def to_prometheus(snapshot: Mapping[str, Any], prefix: str = "repro_") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` document as Prometheus
    text exposition format (version 0.0.4).

    Dotted names become underscore names under ``prefix``
    (``inter.steps`` -> ``repro_inter_steps``); labeled series keep
    their labels.  Histograms are expanded the standard way: cumulative
    ``_bucket`` series with ``le`` upper bounds (``+Inf`` included),
    plus ``_sum`` and ``_count``.  One ``# TYPE`` line is emitted per
    metric family, families in sorted order, so the output is
    byte-stable for a given snapshot.
    """
    from repro.obs.metrics import parse_key

    lines: List[str] = []
    families: Dict[str, List[str]] = {}

    def family(name: str, kind: str) -> List[str]:
        pname = prom_name(name, prefix)
        block = families.get(pname)
        if block is None:
            block = families[pname] = [f"# TYPE {pname} {kind}"]
        return block

    for key, value in snapshot.get("counters", {}).items():
        name, pairs = parse_key(key)
        pname = prom_name(name, prefix)
        family(name, "counter").append(
            f"{pname}{_prom_labels(pairs)} {_prom_value(value)}"
        )
    for key, value in snapshot.get("gauges", {}).items():
        name, pairs = parse_key(key)
        pname = prom_name(name, prefix)
        family(name, "gauge").append(
            f"{pname}{_prom_labels(pairs)} {_prom_value(value)}"
        )
    for key, hist in snapshot.get("histograms", {}).items():
        name, pairs = parse_key(key)
        pname = prom_name(name, prefix)
        block = family(name, "histogram")
        cumulative = 0
        for bound, count in hist["buckets"].items():
            cumulative += count
            le = "+Inf" if bound == "+inf" else bound
            block.append(
                f"{pname}_bucket{_prom_labels(pairs, [('le', le)])} "
                f"{cumulative}"
            )
        block.append(
            f"{pname}_sum{_prom_labels(pairs)} {_prom_value(hist['sum'])}"
        )
        block.append(
            f"{pname}_count{_prom_labels(pairs)} {_prom_value(hist['count'])}"
        )
    for pname in sorted(families):
        lines.extend(families[pname])
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    path: PathLike, snapshot: Mapping[str, Any], prefix: str = "repro_"
) -> pathlib.Path:
    """Write :func:`to_prometheus` output to ``path``; returns the path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(to_prometheus(snapshot, prefix))
    return out


def to_chrome_trace(emitter: Any, pid: int = 1, tid: int = 1) -> Dict[str, Any]:
    """The captured event log as a Chrome trace-event document.

    Spans become complete (``"ph": "X"``) events with microsecond
    ``ts``/``dur``; point events become thread-scoped instants
    (``"ph": "i"``).  The emitter records spans at *exit* but with their
    start timestamp, so the ``X`` events nest correctly when sorted by
    ``ts`` -- which this function does.  Load the result in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    trace_events: List[Dict[str, Any]] = []
    for e in getattr(emitter, "events", ()):
        record: Dict[str, Any] = {
            "name": e.name,
            "cat": e.span if e.span else "top",
            "ts": round(e.ts * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if e.kind == "span":
            record["ph"] = "X"
            record["dur"] = round((e.dur or 0.0) * 1e6, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if e.fields:
            record["args"] = to_jsonable(e.fields)
        trace_events.append(record)
    trace_events.sort(key=lambda r: (r["ts"], -r.get("dur", 0.0)))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: PathLike, emitter: Any, pid: int = 1, tid: int = 1
) -> pathlib.Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    return write_json(path, to_chrome_trace(emitter, pid=pid, tid=tid))


def run_snapshot(emitter: Any, registry: Any = None) -> Dict[str, Any]:
    """Build the combined ``--metrics`` document from one captured run.

    Keys:

    * ``phases`` -- wall seconds per span path (the allocator pipeline's
      validate/analyze/bounds/inter/assign/rewrite timings);
    * ``event_counts`` -- record count per event name;
    * ``inter_steps`` -- the inter-thread greedy loop's state trace:
      the ``inter.start`` budget state, one ``inter.step`` event per
      committed reduction (kind, threads, move-cost delta, requirement
      vs. budget), and the ``inter.done`` end state;
    * ``sim`` -- every ``sim.accounting`` event (per-thread run/idle/
      switch cycle totals that sum to machine cycles, plus the
      context-switch histogram);
    * ``metrics`` -- the registry snapshot (when a registry is given).
    """
    doc: Dict[str, Any] = {
        "schema": SCHEMA_RUN,
        "phases": emitter.phase_timings(),
        "event_counts": emitter.counts(),
        "inter_steps": [
            {"event": e.name, **e.fields}
            for e in getattr(emitter, "events", ())
            if e.name in ("inter.start", "inter.step", "inter.done")
        ],
        "sim": [
            e.fields
            for e in getattr(emitter, "events", ())
            if e.name == "sim.accounting"
        ],
    }
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    return doc


def bench_snapshot(name: str, data: Any, out_dir: PathLike) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path.

    The file shape is ``{"schema": ..., "bench": name, "data": ...}`` so
    trajectory tooling can glob ``BENCH_*.json`` and diff ``data``
    between revisions without caring which experiment produced it.
    """
    doc: Dict[str, Any] = {
        "schema": SCHEMA_BENCH,
        "bench": name,
        "data": to_jsonable(data),
    }
    return write_json(pathlib.Path(out_dir) / f"BENCH_{name}.json", doc)

"""Repository benchmark: serve-cold, serve-hot and artifacts.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-cold --seed 1 \
        --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` runs the same workload and seed untraced and then traced,
and reports the per-layer metrics of the traced run plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it are a
readable report; the full record of the run (host provenance, stream
digest, mix summary, every metric) is written under ``.perfbench/runs/``.

The metric tables, the reasons for each workload and what is left out
on purpose are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: End-to-end metrics (``--trace 0``), every workload, with units.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "regen_s": "s",
    "peak_rss_mb": "MB",
}
#: Metrics printed in the report only: each is zero on some
#: workload by construction, so none can carry a relative bound.
REPORT_ONLY = {
    "failed_ratio": "fraction",
    "moves_total": "count",
    "registers_total": "count",
    "sim_cycles_total": "cycles",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mips"):
        return "MIPS"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


#: Per-layer metrics (``--trace 1``), every workload.
PER_LAYER = [
    "service.submit_s", "service.http_ms", "service.parse_request_s",
    "service.payload_s", "service.store_get_s", "service.store_put_s",
    "service.store_hit_ratio", "service.pipeline_runs",
    "ir.parse_s", "ir.parse_calls", "ir.validate_s", "ir.validate_calls",
    "core.cache.hit_ratio", "core.cache.evictions",
    "core.analysis.analyze_s", "core.analysis.analyze_calls",
    "core.analysis.reference_calls",
    "core.bounds.estimate_s",
    "core.inter.allocate_s", "core.inter.descent_s",
    "core.intra.probes", "core.intra.commit_ratio", "core.intra.realize_s",
    "core.assign.assign_s", "core.rewrite.rewrite_s",
    "sim.fast_s", "sim.reference_s", "sim.build_s",
    "sim.fast_mips", "sim.reference_mips",
    "baseline.chaitin_s",
    "harness.table1_s", "harness.table2_s", "harness.table3_s",
    "harness.fig14_s",
    "gc.pause_s", "gc.gen2_collections",
    "trace.overhead_ratio",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("--workload", required=True,
                        choices=("serve-cold", "serve-hot", "artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    import host
    import workloads

    # Turn SIGTERM into SystemExit so the `finally` blocks stop and reap
    # every server and regeneration process this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    provenance = host.provenance(ROOT)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    workdir = OUT / "work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance["calibration_after_mloops_per_s"] = host.calibrate()
    missing = result.get("missing_layers")
    wanted = PER_LAYER if args.trace else list(END_TO_END)
    units = {m: _layer_unit(m) for m in PER_LAYER} if args.trace \
        else END_TO_END
    metrics = {m: {"value": result["metrics"][m], "unit": units[m]}
               for m in wanted}
    record = {
        "schema": "perfbench.run/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": provenance,
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": metrics,
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("  host   " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    print("  stream " + json.dumps(result["stream"], sort_keys=True))
    for m, v in metrics.items():
        print(f"  {m:32} {v['value']:>14.6g} {v['unit']}")
    for m, value in result.get("report", {}).items():
        unit = REPORT_ONLY.get(m, "")
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) \
            else json.dumps(value)
        print(f"  {m:32} {shown} {unit}")
    print(f"  record {OUT.name}/runs/{name}.json")
    if missing:
        print("error: traced entry points never fired on "
              f"{args.workload}: {', '.join(missing)}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command> ...``.

Commands:

``analyze FILE...``
    Per-thread analysis report: NSRs, boundary/internal classification,
    register-need bounds.
``allocate FILE... [--nreg N] [-o DIR]``
    Run the cross-thread allocator; print the summary and (optionally)
    write the rewritten assembly per thread into DIR.
``run FILE... [--nreg N] [--packets P] [--allocated] [--engine E]``
    Simulate the threads over synthetic packet queues.  With
    ``--allocated`` the programs are first register-allocated, executed
    under the paranoid safety checker, and verified against the
    virtual-register reference run.
``profile FILE... [--nreg N] [--packets P] [--json OUT] [--engine E]``
    Allocate (and simulate) under full telemetry; print per-phase wall
    times, allocator decision counts, and simulator cycle accounting.
``bench {table1,table2,table3,fig14,perf,alloc,analysis,trend}``
    Regenerate one of the paper's tables/figures, or the engine
    (``perf``) / allocation-pipeline (``alloc``, including the
    shared-descent budget sweep: one Figure-8 descent per kernel
    answers every register budget) / cold-analysis (``analysis``)
    throughput comparisons.  Every measuring experiment
    appends a row to the run ledger (``--ledger PATH``, default
    ``$REPRO_LEDGER`` or ``benchmarks/out/ledger.jsonl``); ``trend``
    reads the ledger plus the committed ``BENCH_*.json`` snapshots and
    renders the watched-metric trajectory report -- with ``--gate`` it
    exits non-zero when a watched metric (sim speedup, warm-alloc
    speedup, analysis speedup, cycle counts) regressed beyond the
    noise-aware ``--threshold`` percentage.

``run`` and ``profile`` accept ``--engine {auto,fast,reference}`` to
pick the execution engine (``docs/PERFORMANCE.md``); the default
``auto`` uses the pre-decoded fast engine except for runs needing
reference-only features (tracing, timelines, the paranoid checker, an
active telemetry capture).
Flags that force a reference-only feature (e.g. ``run --allocated``)
reject ``--engine fast`` with an error naming the forcing flag.
Library errors (:class:`~repro.errors.ReproError`, e.g. an
infeasible ``--nreg``) print ``error: <message>`` and exit 2.
``profile`` and ``bench`` also accept ``--cache-dir DIR`` (persist the
analysis cache on disk, also settable via ``REPRO_CACHE_DIR``; the
default is in-memory only).  See "Allocator performance" in
``docs/PERFORMANCE.md``.
``chaos [--kernels a,b,c] [--scenarios x,y] [--seed N] [--json OUT]``
    Run the fault-injection chaos harness (``docs/ROBUSTNESS.md``):
    every scenario must end masked-by-policy or as a typed error, with
    the independent verifier clean on masked allocations; exits
    non-zero when the gate fails.
``serve [--port N] [--workers W] [--queue-depth D] [--store-dir DIR]``
    Run the allocation service (``docs/SERVICE.md``): a hardened HTTP
    frontend over the pipeline with bounded admission (typed 429 +
    ``Retry-After``), request coalescing, a content-addressed result
    store, per-subsystem circuit breakers, health/readiness endpoints,
    and graceful SIGTERM drain (``--ledger PATH`` appends a run-ledger
    row on the way out).  ``--port 0`` picks a free port and prints it.
``suite``
    List the built-in benchmark kernels with basic properties.

``analyze``, ``allocate``, ``run``, ``bench``, and ``chaos``
additionally accept ``--metrics OUT.json`` (combined telemetry
snapshot: phase timings, inter-allocator step trace, simulator cycle
accounting, metric counters), ``--trace-json OUT.jsonl`` (the raw
structured event log, one JSON object per line), ``--prom OUT.prom``
(the metric registry in Prometheus text exposition format), and
``--trace-chrome OUT.json`` (the span tree as Chrome trace-event JSON,
loadable in Perfetto).  See ``docs/OBSERVABILITY.md`` for the schemas.

Files are npir assembly; the special name ``bench:<name>`` loads a
built-in benchmark instead (e.g. ``bench:md5``).
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import Any, ContextManager, Iterator, List, Optional, Sequence

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.pipeline import allocate_programs
from repro.errors import ReproError
from repro.obs import events as obs
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.sim.engine import ENGINES
from repro.sim.run import outputs_match, run_reference, run_threads
from repro.suite.registry import BENCHMARKS, load


def _load_program(spec: str) -> Program:
    if spec.startswith("bench:"):
        return load(spec[len("bench:"):])
    path = pathlib.Path(spec)
    program = parse_program(path.read_text(), path.stem)
    validate_program(program)
    return program


def _load_all(specs: Sequence[str]) -> List[Program]:
    return [_load_program(s) for s in specs]


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace) -> Iterator[None]:
    """Capture telemetry around a command when any of ``--metrics``,
    ``--trace-json``, ``--prom``, or ``--trace-chrome`` was given;
    write the files on the way out."""
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace_json", None)
    prom_path = getattr(args, "prom", None)
    chrome_path = getattr(args, "trace_chrome", None)
    if not metrics_path and not trace_path and not prom_path \
            and not chrome_path:
        yield
        return
    from repro.obs import events, metrics
    from repro.obs.export import (
        run_snapshot,
        write_chrome_trace,
        write_json,
        write_jsonl,
        write_prometheus,
    )

    try:
        with metrics.scoped() as registry, events.capture() as emitter:
            yield
    finally:
        # Write even when the command aborted (broken pipe, allocation
        # failure): the partial trace shows what happened up to the error.
        if trace_path:
            out = write_jsonl(
                trace_path, (e.to_dict() for e in emitter.events)
            )
            print(
                f"wrote {len(emitter.events)} events to {out}",
                file=sys.stderr,
            )
        if metrics_path:
            out = write_json(metrics_path, run_snapshot(emitter, registry))
            print(f"wrote telemetry snapshot to {out}", file=sys.stderr)
        if prom_path:
            out = write_prometheus(prom_path, registry.snapshot())
            print(f"wrote Prometheus metrics to {out}", file=sys.stderr)
        if chrome_path:
            out = write_chrome_trace(chrome_path, emitter)
            print(f"wrote Chrome trace to {out}", file=sys.stderr)


def cmd_analyze(args: argparse.Namespace) -> int:
    for spec in args.files:
        program = _load_program(spec)
        with obs.span("analyze", program=program.name):
            analysis = analyze_thread(program)
            bounds = estimate_bounds(analysis)
        print(f"== {program.name} ==")
        print(f"instructions:        {len(program.instrs)}")
        csb = program.count_csb()
        print(
            f"CSB instructions:    {csb} "
            f"({100.0 * csb / len(program.instrs):.1f}%)"
        )
        print(f"live ranges:         {len(analysis.all_regs)}")
        print(f"non-switch regions:  {analysis.nsr.n_regions}")
        print(f"avg region size:     {analysis.nsr.average_region_size():.1f}")
        print(f"boundary ranges:     {len(analysis.nsr.boundary)}")
        print(f"internal ranges:     {len(analysis.nsr.internal)}")
        print(f"bounds:              {bounds}")
        if args.chart:
            from repro.harness.describe import live_range_chart

            print()
            print(live_range_chart(analysis))
        if args.nsr:
            from repro.harness.describe import nsr_map

            print()
            print(nsr_map(analysis))
        print()
    return 0


def cmd_allocate(args: argparse.Namespace) -> int:
    programs = _load_all(args.files)
    outcome = allocate_programs(programs, nreg=args.nreg)
    print(outcome.summary())
    if args.output:
        out_dir = pathlib.Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for tid, program in enumerate(outcome.programs):
            path = out_dir / f"{tid}_{program.name}.npir"
            path.write_text(format_program(program))
            print(f"wrote {path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    programs = _load_all(args.files)
    engine = args.engine
    if args.allocated:
        if engine == "fast":
            print(
                _engine_conflict(
                    "--allocated", engine, "the paranoid safety checker"
                ),
                file=sys.stderr,
            )
            return 2
        outcome = allocate_programs(programs, nreg=args.nreg)
        result = run_threads(
            outcome.programs,
            packets_per_thread=args.packets,
            nreg=args.nreg,
            assignment=outcome.assignment,
            engine=engine,
        )
        reference = run_reference(
            programs, packets_per_thread=args.packets, engine=engine
        )
        verified = outputs_match(reference, result)
        print(f"allocated run verified against reference: {verified}")
        if not verified:
            return 1
    else:
        result = run_threads(
            programs,
            packets_per_thread=args.packets,
            nreg=args.nreg,
            engine=engine,
        )
    stats = result.stats
    print(f"cycles: {stats.cycles}  utilization: {stats.utilization():.0%}")
    for tid, t in enumerate(stats.threads):
        print(
            f"  thread {tid} ({programs[tid].name}): "
            f"{t.iterations} packets, {t.instructions} instructions, "
            f"{t.cycles_per_iteration():.1f} wall cyc/packet"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.export import write_json
    from repro.obs.profile import profile_programs, render_report

    programs = _load_all(args.files)
    report = profile_programs(
        programs,
        nreg=args.nreg,
        packets=args.packets,
        sim=not args.no_sim,
        engine=args.engine,
    )
    print(render_report(report))
    if args.json:
        out = write_json(args.json, report.to_dict())
        print(f"wrote profile to {out}", file=sys.stderr)
    return 0


#: ``repro bench`` experiments: (harness module, run, render).  The
#: module is imported when the command runs, so importing the CLI loads
#: no harness.  The throughput benches return their ``BENCH_*.json``
#: payload; the paper's tables and figure return rows.
BENCH_EXPERIMENTS = {
    "table1": ("table1", "run_table1", "render_table1"),
    "table2": ("table2", "run_table2", "render_table2"),
    "table3": ("table3", "run_table3", "render_table3"),
    "fig14": ("fig14", "run_fig14", "render_fig14"),
    "perf": ("perf", "run_perf", "render_perf"),
    "alloc": ("allocperf", "run_alloc_bench", "render_alloc"),
    "analysis": ("analysisperf", "run_analysis_bench", "render_analysis"),
}


def _bench_ledger_path(args: argparse.Namespace):
    """Resolve the ledger path for ``repro bench``: the ``--ledger``
    flag wins; otherwise the default (``$REPRO_LEDGER`` or
    ``benchmarks/out/ledger.jsonl``) -- but only when its parent
    directory already exists, so running ``repro bench`` outside the
    repo does not scatter ``benchmarks/`` trees around."""
    from repro.obs import ledger

    explicit = getattr(args, "ledger", None)
    if explicit:
        return pathlib.Path(explicit)
    path = ledger.default_path()
    return path if path.parent.is_dir() else None


def _cmd_bench_trend(args: argparse.Namespace) -> int:
    from repro.harness.trend import render_trend, run_trend, trend_report
    from repro.obs import ledger
    from repro.obs.export import write_json

    ledger_path = getattr(args, "ledger", None) or ledger.default_path()
    out_dir = pathlib.Path("benchmarks") / "out"
    trends = run_trend(
        ledger_path=ledger_path,
        out_dir=out_dir,
        threshold_pct=args.threshold,
    )
    print(render_trend(trends))
    report = trend_report(trends, args.threshold)
    report_path = getattr(args, "report", None)
    if report_path is None and out_dir.is_dir():
        report_path = out_dir / "TREND.json"
    if report_path:
        out = write_json(report_path, report)
        print(f"wrote trend report to {out}", file=sys.stderr)
    if args.gate and report["regressions"]:
        print(
            f"trend gate FAILED: {', '.join(report['regressions'])}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import importlib

    from repro.harness.trend import record

    if args.experiment == "trend":
        return _cmd_bench_trend(args)
    module, run, render = BENCH_EXPERIMENTS[args.experiment]
    harness = importlib.import_module(f"repro.harness.{module}")
    result = getattr(harness, run)()
    print(getattr(harness, render)(result))
    if not isinstance(result, dict):
        result = [row.to_dict() for row in result]
    path = _bench_ledger_path(args)
    bad, appended = record(args.experiment, result, ledger_path=path)
    if bad:
        print(f"diverged: {', '.join(bad)} false; no row", file=sys.stderr)
        return 1
    if appended is not None:
        print(
            f"appended {args.experiment} ledger row to {appended}",
            file=sys.stderr,
        )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.harness.chaos import render_chaos, run_chaos

    kernels = [k for k in args.kernels.split(",") if k]
    scenarios = (
        [s for s in args.scenarios.split(",") if s] if args.scenarios else None
    )
    try:
        report = run_chaos(kernels=kernels, scenarios=scenarios, seed=args.seed)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_chaos(report))
    if args.json:
        from repro.obs.export import write_json

        out = write_json(args.json, report.to_dict())
        print(f"wrote chaos report to {out}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the allocation service until SIGTERM/SIGINT, then drain."""
    import gc
    import signal
    import threading
    import time

    from repro.service import ReproServer, ServiceConfig
    from repro.service.server import SERVE_GC_THRESHOLD

    config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_request_bytes=args.max_request_bytes,
        default_deadline_s=args.deadline,
        store_dir=args.store_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        drain_timeout_s=args.drain_timeout,
    )
    gc.set_threshold(*SERVE_GC_THRESHOLD)
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    # Installed before the server answers anything: a client that reads
    # the banner may signal at once, and the default action would kill
    # the process instead of draining it.
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server = ReproServer(config, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    # The exact "serving on" line is the contract the smoke harness
    # (and any wrapping orchestrator) parses for the bound port.
    print(f"serving on http://{host}:{port}", flush=True)
    stop.wait()
    print("draining...", file=sys.stderr, flush=True)
    clean = server.drain_and_stop(config.drain_timeout_s)
    if args.ledger:
        from repro.obs import ledger

        row = ledger.make_row(
            "service",
            server.core.ledger_metrics(),
            config={
                "workers": config.workers,
                "queue_depth": config.queue_depth,
                "breaker_threshold": config.breaker_threshold,
            },
            ts=time.time(),
        )
        out = ledger.append(row, args.ledger)
        print(f"appended service ledger row to {out}", file=sys.stderr)
    status = "cleanly" if clean else "with deadline-outs"
    print(f"drained {status}", file=sys.stderr, flush=True)
    return 0 if clean else 1


def cmd_suite(args: argparse.Namespace) -> int:
    print(f"{'name':14} {'instrs':>6} {'CSB%':>5}")
    for name in BENCHMARKS:
        program = load(name)
        density = 100.0 * program.count_csb() / len(program.instrs)
        print(f"{name:14} {len(program.instrs):6} {density:5.1f}")
    return 0


def _cache_scope(args: argparse.Namespace) -> ContextManager[Any]:
    """Bind an analysis cache persisted in ``--cache-dir`` around the
    command when given; otherwise the process default serves it."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return contextlib.nullcontext()
    from repro.core.cache import AnalysisCache, scoped

    return scoped(AnalysisCache(cache_dir=cache_dir))


def _add_perf_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        dest="cache_dir",
        help="persist the analysis cache in DIR across runs "
        "(default: in-memory only, or $REPRO_CACHE_DIR when set)",
    )


def _add_engine_flag(p: argparse.ArgumentParser) -> None:
    """The one shared ``--engine`` definition for the subparsers that
    run the simulator per call (``run``/``profile``); the choice list
    comes straight from the engine registry."""
    p.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="auto",
        help="execution engine: 'fast' is the pre-decoded burst engine "
        "(stats-identical, no tracing/paranoid checks), 'reference' "
        "the full-featured interpreter, 'auto' picks per run (default)",
    )


def _engine_conflict(flag: str, engine: str, feature: str) -> str:
    """An incompatible-flag error that names the flag forcing the
    conflict, e.g. ``--allocated`` vs ``--engine fast``."""
    return (
        f"error: {flag} needs {feature}, which the {engine} engine does "
        f"not implement; {flag} forces the reference engine, so drop "
        f"--engine {engine} or use --engine reference/auto"
    )


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics",
        metavar="OUT.json",
        help="write a combined telemetry snapshot (phase timings, "
        "inter-allocator steps, simulator cycle accounting, metrics)",
    )
    p.add_argument(
        "--trace-json",
        metavar="OUT.jsonl",
        dest="trace_json",
        help="write the raw structured event log as JSON Lines",
    )
    p.add_argument(
        "--prom",
        metavar="OUT.prom",
        help="write the metric registry in Prometheus text exposition "
        "format (histograms as _bucket/_sum/_count)",
    )
    p.add_argument(
        "--trace-chrome",
        metavar="OUT.json",
        dest="trace_chrome",
        help="write the span tree as Chrome trace-event JSON "
        "(chrome://tracing, Perfetto)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Balancing register allocation across threads for a "
            "multithreaded network processor (PLDI 2004) -- reproduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-thread analysis report")
    p.add_argument("files", nargs="+")
    p.add_argument(
        "--chart", action="store_true", help="print the live-range chart"
    )
    p.add_argument(
        "--nsr", action="store_true", help="print the NSR-annotated listing"
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("allocate", help="cross-thread register allocation")
    p.add_argument("files", nargs="+")
    p.add_argument("--nreg", type=int, default=128)
    p.add_argument("-o", "--output", help="directory for rewritten assembly")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("run", help="simulate threads over packet queues")
    p.add_argument("files", nargs="+")
    p.add_argument("--nreg", type=int, default=128)
    p.add_argument("--packets", type=int, default=16)
    p.add_argument(
        "--allocated",
        action="store_true",
        help="allocate first, verify against the reference run",
    )
    _add_engine_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "profile", help="profile the allocator pipeline and simulator"
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--nreg", type=int, default=128)
    p.add_argument("--packets", type=int, default=16)
    p.add_argument(
        "--no-sim",
        action="store_true",
        help="profile the allocation only, skip the simulated run",
    )
    p.add_argument("--json", metavar="OUT.json", help="write the report as JSON")
    _add_engine_flag(p)
    _add_perf_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "bench",
        help="regenerate a paper table/figure or run the trend sentinel",
    )
    p.add_argument(
        "experiment",
        choices=[*BENCH_EXPERIMENTS, "trend"],
        help="experiment to run; 'alloc' measures the allocation "
        "pipeline cold/warm AND the shared-descent budget sweep (one "
        "Figure-8 descent per kernel answering every register budget, "
        "see docs/PERFORMANCE.md, 'Shared-descent budget sweeps')",
    )
    _add_obs_flags(p)
    _add_perf_flags(p)
    p.add_argument(
        "--ledger",
        metavar="PATH",
        help="run-ledger JSONL file to append to / read trends from "
        "(default: $REPRO_LEDGER or benchmarks/out/ledger.jsonl)",
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="trend only: exit non-zero when a watched metric regressed",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="trend only: regression threshold in percent vs the median "
        "baseline; widened automatically when the history is noisier "
        "(default: 10)",
    )
    p.add_argument(
        "--report",
        metavar="OUT.json",
        help="trend only: where to write the JSON trend report "
        "(default: benchmarks/out/TREND.json when that directory exists)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "chaos",
        help="run the fault-injection chaos harness and gate on it",
    )
    p.add_argument(
        "--kernels",
        default="crc,frag,md5",
        help="comma-separated suite kernels to sweep (default: crc,frag,md5)",
    )
    p.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: all registered)",
    )
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument(
        "--json", metavar="OUT.json", help="write the chaos report as JSON"
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run the allocation service (POST /v1/allocate; "
        "docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8742,
        help="TCP port; 0 picks a free port (printed on stdout)",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="pipeline worker threads"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        dest="queue_depth",
        help="admission bound; requests beyond it shed with 429",
    )
    p.add_argument(
        "--max-request-bytes",
        type=int,
        default=256 * 1024,
        dest="max_request_bytes",
        help="reject larger bodies with 413 before parsing",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-request wall-clock budget (seconds)",
    )
    p.add_argument(
        "--store-dir",
        dest="store_dir",
        help="persist results on disk for idempotent replay across "
        "restarts (default: memory only)",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        dest="breaker_threshold",
        help="consecutive failures before a subsystem breaker opens",
    )
    p.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        dest="breaker_cooldown",
        help="seconds an open breaker waits before half-opening",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        dest="drain_timeout",
        help="seconds SIGTERM waits for in-flight work before "
        "deadline-ing it out",
    )
    p.add_argument(
        "--ledger",
        metavar="PATH",
        help="append a service run-ledger row on drain",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("suite", help="list built-in benchmarks")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _telemetry(args), _cache_scope(args):
            return args.func(args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The three workloads, each measured from outside the program.

``serve-cold`` / ``serve-hot``
    A real ``repro serve`` process driven over HTTP by this process: a
    closed loop over one keep-alive connection (the next request leaves
    when the previous response has been read in full).  One connection,
    because the server's pipeline is bound by the interpreter lock: two
    connections gave no more throughput and made the tail depend on
    which requests happened to overlap.
``artifacts``
    Fresh processes (``child.py regen``) each regenerating Tables 1-3 and
    Figure 14 once, cold, through the ``repro.harness`` entry points.

Every run does a fixed amount of work derived from ``--seconds`` (see
:func:`timed_requests` and :func:`regenerations`), so a parent commit
and a change measure the identical request stream; when the benchmark
was introduced, on a 2-core host, the timed phase lasted about
``--seconds``.  Correctness is checked after the timed phase and outside
it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import streams
import tracer
from child import peak_rss_kb

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Nominal timed-phase rates on a 2-core host when the benchmark was
#: introduced; the request count of a run is ``seconds * rate``.
NOMINAL_RPS = {"serve-cold": 10.0, "serve-hot": 15.0}
#: Server launches per serve run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Regenerations per second of ``--seconds``, and the minimum count.
REGEN_RATE = 0.2
MIN_REGENERATIONS = 3
#: Extra import-only processes per artifacts run; ``setup_s`` is the
#: median over them and the regeneration processes.
SETUP_ONLY_PROCESSES = 3
#: Wall-clock guards: no wait in the benchmark is unbounded.
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REGEN_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot measure (a process failed to start or stop)."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    return env


def _log_tail(path: pathlib.Path, lines: int = 3) -> str:
    """The last lines of a child's log, for an error message."""
    text = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def _canon(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True)


def percentile(values: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ----------------------------------------------------------------------
# The serve workloads.
# ----------------------------------------------------------------------
def timed_requests(workload: str, seconds: int) -> int:
    return max(1, round(seconds * NOMINAL_RPS[workload]))


class Server:
    """One ``repro serve`` process on a free port, plus its connection."""

    def __init__(self, workdir: pathlib.Path, spans: Optional[str]):
        if spans:
            cmd = [sys.executable, str(HERE / "child.py"), "serve",
                   "--spans", spans, "--", "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.log = open(workdir / "server.log", "ab")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            banner = self.proc.stdout.readline()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        if not banner.startswith("serving on http://"):
            self.stop()
            raise BenchError(
                f"server did not start: {_log_tail(workdir / 'server.log')}"
            )
        host, port = banner.strip()[len("serving on http://"):].rsplit(":", 1)
        self.conn = http.client.HTTPConnection(
            host, int(port), timeout=REQUEST_TIMEOUT_S
        )

    def post(self, body: bytes) -> Tuple[int, bytes, float]:
        start = time.perf_counter()
        self.conn.request("POST", "/v1/allocate", body,
                          {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - start

    def statusz(self) -> Dict[str, Any]:
        self.conn.request("GET", "/statusz")
        return json.loads(self.conn.getresponse().read())

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain) and wait; kill past the timeout.
        Returns the exit code, or None when the drain had to be killed."""
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        code: Optional[int] = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return code


@dataclass
class ServePass:
    setup_s: float
    wall_s: float
    window: Tuple[float, float]
    statuses: List[int]
    bodies: List[bytes]
    latencies: List[float]
    pipeline_runs: int
    peak_rss_kb: int
    warmup_failed: int
    exit_code: Optional[int]
    dump: Optional[Dict[str, Any]] = None


def _warm(server: Server, stream: streams.Stream) -> int:
    failed = 0
    for req in stream.warmup:
        status, _, _ = server.post(req.body)
        failed += status != 200
    return failed


def setup_only(
    stream: streams.Stream, workdir: pathlib.Path,
) -> Tuple[float, int, Optional[int]]:
    """Launch, warm up, stop: one ``setup_s`` sample."""
    server = Server(workdir, None)
    try:
        failed = _warm(server, stream)
        setup = time.monotonic() - server.launched
    finally:
        code = server.stop()
    return setup, failed, code


def serve_pass(
    stream: streams.Stream, workdir: pathlib.Path, traced: bool
) -> ServePass:
    spans = str(workdir / "spans.json") if traced else None
    server = Server(workdir, spans)
    try:
        warm_failed = _warm(server, stream)
        setup = time.monotonic() - server.launched
        base = server.statusz()["pipeline_runs"]
        statuses, bodies, latencies = [], [], []
        start = time.monotonic()
        for req in stream.timed:
            status, data, latency = server.post(req.body)
            statuses.append(status)
            bodies.append(data)
            latencies.append(latency)
        end = time.monotonic()
        runs = server.statusz()["pipeline_runs"] - base
        rss = peak_rss_kb(server.proc.pid)
    finally:
        code = server.stop()
    return ServePass(
        setup_s=setup, wall_s=end - start, window=(start, end),
        statuses=statuses, bodies=bodies, latencies=latencies,
        pipeline_runs=runs, peak_rss_kb=rss, warmup_failed=warm_failed,
        exit_code=code,
        dump=tracer.load_dump(spans) if traced else None,
    )


def recompute(
    stream: streams.Stream,
) -> Tuple[Dict[bytes, Tuple[str, str]], float]:
    """Every distinct timed request through direct library calls, from an
    empty analysis cache: the payload via ``allocate_programs`` +
    ``outcome_payload``, the verdict via ``run_threads``.  Returns
    canonical JSON per body and the wall seconds of the pass."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.cache import get_cache
    from repro.core.pipeline import allocate_programs
    from repro.ir.parser import parse_program
    from repro.service.protocol import (
        OPTION_DEFAULTS,
        outcome_payload,
        verdict_payload,
    )
    from repro.service.server import VERDICT_MAX_CYCLES
    from repro.sim.run import run_threads

    distinct = list(dict.fromkeys(r.body for r in stream.timed))
    expected = {}
    get_cache().clear()
    start = time.monotonic()
    for body in distinct:
        doc = json.loads(body)
        opts = {k: doc.get(k, v) for k, v in OPTION_DEFAULTS.items()}
        programs = [
            parse_program(p["asm"], p["name"]) for p in doc["programs"]
        ]
        outcome = allocate_programs(
            programs, nreg=opts["nreg"], check_init=opts["check_init"],
            policy=opts["policy"],
        )
        verdict = None
        if opts["simulate"]:
            verdict = verdict_payload(run_threads(
                list(outcome.programs),
                packets_per_thread=opts["simulate"],
                nreg=outcome.inter.nreg,
                engine=opts["engine"],
                max_cycles=VERDICT_MAX_CYCLES,
            ).stats)
        expected[body] = (_canon(outcome_payload(outcome)), _canon(verdict))
    return expected, time.monotonic() - start


def check_pass(
    stream: streams.Stream, run: ServePass,
    expected: Dict[bytes, Tuple[str, str]],
) -> Tuple[List[Optional[Dict[str, Any]]], Dict[str, int]]:
    """Results of the timed requests (None where failed) and a tally of
    failures by kind: non-200 or error envelope, payload mismatch,
    verdict mismatch."""
    results: List[Optional[Dict[str, Any]]] = []
    tally = {"http": 0, "payload": 0, "verdict": 0}
    for req, status, data in zip(stream.timed, run.statuses, run.bodies):
        envelope = json.loads(data)
        if status != 200 or envelope.get("status") != "ok":
            tally["http"] += 1
            results.append(None)
            continue
        result = envelope["result"]
        verdict = result.pop("verdict", None)
        payload, want_verdict = expected[req.body]
        if _canon(result) != payload:
            tally["payload"] += 1
            results.append(None)
        elif _canon(verdict) != want_verdict:
            tally["verdict"] += 1
            results.append(None)
        else:
            result["verdict"] = verdict
            result["cached"] = envelope["cached"]
            results.append(result)
    return results, tally


def run_serve(workload: str, seed: int, seconds: int, trace: bool,
              workdir: pathlib.Path) -> Dict[str, Any]:
    stream = streams.GENERATORS[workload](
        seed, timed_requests(workload, seconds)
    )
    setups: List[float] = []
    attempted = failed = 0
    passes: List[ServePass] = []
    bad_exits = 0
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            setup, warm_failed, code = setup_only(stream, workdir)
            setups.append(setup)
            attempted += len(stream.warmup)
            failed += warm_failed
            bad_exits += code != 0
    passes.append(serve_pass(stream, workdir, traced=False))
    if trace:
        passes.append(serve_pass(stream, workdir, traced=True))
    expected, direct_s = recompute(stream)
    tally = {"http": 0, "payload": 0, "verdict": 0}
    checked = []
    for run in passes:
        setups.append(run.setup_s)
        attempted += len(stream.warmup) + len(stream.timed)
        failed += run.warmup_failed
        bad_exits += run.exit_code != 0
        results, t = check_pass(stream, run, expected)
        for k in t:
            tally[k] += t[k]
        checked.append(results)
    failed += sum(tally.values())
    out: Dict[str, Any] = {
        "stream": {"digest": stream.digest(), **stream.summary()},
        "attempted": attempted,
        "failed": failed,
        "failures": {**tally, "server_exit": bad_exits},
        "correct": failed == 0 and bad_exits == 0,
    }
    run, results = passes[0], checked[0]
    ok = [r for r in results if r is not None]
    if not trace:
        # A failed request misses any latency limit: it counts as the
        # client's timeout.
        lat = [
            l if r is not None else REQUEST_TIMEOUT_S
            for l, r in zip(run.latencies, results)
        ]
        p90, beyond = percentile(lat, 0.9)
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "throughput_rps": len(ok) / run.wall_s,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            # The wall time to regenerate every result of the stream
            # through the service.  The direct recomputation is timed
            # too, but as pure computation it follows the host's speed
            # swings (spread up to 0.33 over ten runs on a shared 2-core
            # host), so it is only reported.
            "regen_s": run.wall_s,
            "peak_rss_mb": run.peak_rss_kb / 1024,
        }
        out["report"] = {
            "failed_ratio": failed / attempted,
            "moves_total": sum(r["total_moves"] for r in ok),
            "registers_total": sum(r["total_registers"] for r in ok),
            "latency_samples": len(lat),
            "latency_p90_samples_beyond": beyond,
            "setup_samples": setups,
            "direct_recompute_s": direct_s,
        }
        if workload == "serve-hot":
            out["report"]["sim_cycles_total"] = sum(
                r["verdict"]["cycles"] for r in ok
            )
        return out
    traced, traced_results = passes[1], checked[1]
    part = tracer.select(traced.dump, traced.window)
    out["missing_layers"] = tracer.check_fired(workload, part)
    metrics = tracer.layer_metrics([part])
    submits = [s[3] - s[2] for s in part["spans"] if s[1] == "service.submit"]
    traced_ok = [r for r in traced_results if r is not None]
    metrics.update({
        "service.http_ms": (
            statistics.mean(traced.latencies) - statistics.mean(submits)
        ) * 1e3 if submits else 0.0,
        "service.store_hit_ratio": (
            sum(r["cached"] for r in traced_ok) / len(traced_ok)
            if traced_ok else 0.0
        ),
        "service.pipeline_runs": traced.pipeline_runs,
        "trace.overhead_ratio": traced.wall_s / run.wall_s - 1.0,
    })
    out["metrics"] = metrics
    return out


# ----------------------------------------------------------------------
# The artifacts workload.
# ----------------------------------------------------------------------
def regenerations(seconds: int) -> int:
    return max(MIN_REGENERATIONS, round(seconds * REGEN_RATE))


def _committed_digests() -> Dict[str, Optional[str]]:
    out = {}
    for name in ("table1", "table2", "table3_md5_fir2dim",
                 "table3_l2l3fwd_md5", "table3_wraps_fir2dim_frag", "fig14"):
        path = ROOT / "benchmarks" / "out" / f"BENCH_{name}.json"
        out[name] = (
            hashlib.sha256(path.read_bytes()).hexdigest()
            if path.exists() else None
        )
    return out


@dataclass
class Regen:
    setup_s: float
    latency_s: float
    regen_s: float = 0.0
    rss_kb: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    dump: Optional[Dict[str, Any]] = None


def regen_process(workdir: pathlib.Path, spans: Optional[str] = None,
                  setup_only: bool = False) -> Regen:
    cmd = [sys.executable, str(HERE / "child.py"), "regen"]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    with open(workdir / "regen.log", "ab") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, stderr=log)
        try:
            stdout, _ = proc.communicate(timeout=REGEN_TIMEOUT_S)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("regeneration process timed out") from None
            raise
    finished = time.monotonic()
    lines = [json.loads(l) for l in stdout.decode().splitlines() if l]
    if len(lines) != (1 if setup_only else 2) or proc.returncode != 0:
        raise BenchError(
            f"regeneration process failed (exit {proc.returncode}): "
            f"{_log_tail(workdir / 'regen.log')}"
        )
    run = Regen(setup_s=lines[0]["ready"] - launched,
                latency_s=finished - launched)
    if not setup_only:
        done = lines[1]
        run.regen_s = done["end"] - done["start"]
        run.rss_kb = done["rss_kb"]
        run.digests = done["digests"]
        if spans:
            run.dump = tracer.load_dump(spans)
    return run


def run_artifacts(workload: str, seed: int, seconds: int, trace: bool,
                  workdir: pathlib.Path) -> Dict[str, Any]:
    # The inputs are the suite kernels and the committed parameters; the
    # seed changes nothing here and is only recorded.
    count = regenerations(seconds)
    committed = _committed_digests()
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            setups.append(regen_process(workdir, setup_only=True).setup_s)
    start = time.monotonic()
    plain = [regen_process(workdir) for _ in range(count)]
    wall = time.monotonic() - start
    traced = []
    if trace:
        for i in range(count):
            traced.append(regen_process(
                workdir, spans=str(workdir / f"spans-{i}.json")
            ))
    attempted = failed = 0
    mismatched = set()
    for run in plain + traced:
        for name, digest in committed.items():
            attempted += 1
            if digest is None or run.digests.get(name) != digest:
                failed += 1
                mismatched.add(name)
    out: Dict[str, Any] = {
        "stream": {"regenerations": count, "artifacts": sorted(committed),
                   "jobs": 1},
        "attempted": attempted,
        "failed": failed,
        "failures": {"mismatched": sorted(mismatched)},
        "correct": failed == 0,
    }
    if not trace:
        setups += [r.setup_s for r in plain]
        latencies = [r.latency_s for r in plain]
        p90, beyond = percentile(latencies, 0.9)
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "throughput_rps": count / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "regen_s": statistics.median(r.regen_s for r in plain),
            "peak_rss_mb": statistics.median(r.rss_kb for r in plain) / 1024,
        }
        out["report"] = {
            "failed_ratio": failed / attempted,
            "latency_samples": len(latencies),
            "latency_p90_samples_beyond": beyond,
            "setup_samples": setups,
            "regen_samples": [r.regen_s for r in plain],
        }
        return out
    parts = [tracer.select(r.dump, None) for r in traced]
    missing = set()
    for part in parts:
        missing.update(tracer.check_fired(workload, part))
    out["missing_layers"] = sorted(missing)
    metrics = tracer.layer_metrics(parts)
    metrics.update({
        "service.http_ms": 0.0,
        "service.store_hit_ratio": 0.0,
        "service.pipeline_runs": 0,
        "trace.overhead_ratio": (
            sum(r.regen_s for r in traced) / sum(r.regen_s for r in plain)
            - 1.0
        ),
    })
    out["metrics"] = metrics
    return out


RUNNERS = {
    "serve-cold": run_serve,
    "serve-hot": run_serve,
    "artifacts": run_artifacts,
}

"""The allocation service: core request lifecycle + HTTP frontend.

Two layers, deliberately separable:

:class:`ServiceCore`
    The whole hardened lifecycle with no sockets anywhere -- parse /
    reject, store lookup, validation, coalescing, bounded admission,
    worker execution under a per-request :class:`~repro.resilience.
    deadline.Deadline`, circuit-breakered store/engine/verifier access,
    typed envelopes for every outcome.  Tests and the chaos harness
    drive this object directly; every robustness invariant lives here.

:class:`ReproServer`
    A thin stdlib HTTP skin (``http.server.ThreadingHTTPServer``) over
    one core: ``POST /v1/allocate`` plus health/readiness/metrics
    endpoints and graceful drain.  No new dependencies.

Request lifecycle (the order is the robustness story)::

    parse     size caps, fields, options, assembly parse -> request key
    replay    content-addressed result store -> idempotent cache hit
    validate  structural validation, on a miss, BEFORE any queue slot
              or analysis (a hit needs none: the key covers every
              program and ``check_init``, and only payloads of
              validated programs are stored)
    coalesce  identical in-flight request -> follow the leader
    admit     bounded queue; full or draining -> typed 429 + retry_after
    execute   worker thread in the submitter's context, Deadline
              threaded into the pipeline, breakers around
              store/engine/verifier
    respond   ok / typed error envelope; degraded modes flagged

Every response is either a payload byte-identical to a direct
:func:`~repro.core.pipeline.allocate_programs` call or a typed error
envelope -- zero hangs (every wait has a deadline), zero untyped 500s
(the catch-all still ships a well-formed envelope, and only injected
chaos ever reaches it).

Metrics (always recorded -- servers scrape ``/metrics`` without an
event capture): ``service.requests{status=}``, ``service.queue_depth``,
``service.shed``, ``service.coalesced``, ``service.store{result=}``,
``service.breaker{site=,state=}``, ``service.request_seconds``.
"""

from __future__ import annotations

import gc
import http.server
import json
import math
import threading
import time
from contextvars import Context, copy_context
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import allocate_programs
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    RequestRejected,
    ServiceOverloaded,
    SimulationError,
    VerificationError,
)
from repro.ir.validate import validate_program
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.service import protocol
from repro.service.admission import AdmissionQueue
from repro.service.breaker import BreakerBoard
from repro.service.coalesce import Coalescer, Entry
from repro.service.store import ResultStore

#: Cycle watchdog for service verdict runs -- a runaway rewritten
#: program trips a typed WatchdogError, never a wall-clock hang.
VERDICT_MAX_CYCLES = 5_000_000

#: Extra seconds a caller waits past its own deadline for the worker's
#: typed DeadlineExceeded to arrive before raising its own.
_WAIT_GRACE = 0.25

#: Collector thresholds ``repro serve`` sets once, before it serves.  A
#: cold request allocates far more objects than the default 700 per
#: young collection, so under the default each request's young
#: collections promoted its fresh analysis-cache entries to the old
#: generation, and full collections walked the whole cached heap.
#: Young collections still run at these thresholds, so cyclic garbage
#: stays bounded (``docs/SERVICE.md``).  Set by
#: :func:`repro.cli.cmd_serve`, which owns the process, not by
#: :class:`ReproServer`, which tests embed.
SERVE_GC_THRESHOLD = (50_000, 20, 100)


@dataclass
class ServiceConfig:
    """Everything that shapes one service instance."""

    workers: int = 2
    queue_depth: int = 16
    retry_after: float = 0.05
    max_request_bytes: int = 256 * 1024
    max_programs: int = protocol.MAX_PROGRAMS
    default_deadline_s: float = 30.0
    store_dir: Optional[str] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class _Job:
    """One admitted execution: the leader's request, its outcome slot and
    its submitter's context (:mod:`repro.scope`), which the job runs in."""

    request: protocol.ServiceRequest
    deadline: Deadline
    entry: Entry
    context: Context


class ServiceCore:
    """The request lifecycle engine (no sockets; see module docstring)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock=time.monotonic,
    ):
        self.config = config or ServiceConfig()
        self.clock = clock
        self.queue = AdmissionQueue(
            self.config.queue_depth, retry_after=self.config.retry_after
        )
        self.coalescer = Coalescer()
        self.store = ResultStore(self.config.store_dir)
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=clock,
        )
        self.draining = False
        self.started = False
        self.pipeline_runs = 0
        self._counts_lock = threading.Lock()
        self._status_counts: Dict[str, int] = {}
        self._workers: List[threading.Thread] = []
        self.started_at = clock()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        if self.started:
            return
        self.started = True
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            t.start()
            self._workers.append(t)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: stop admitting, finish or deadline-out work.

        Returns True when every worker exited within ``timeout``
        seconds (default: the configured ``drain_timeout_s``); queued
        items that could not be finished in time are resolved with a
        typed :class:`DeadlineExceeded` so no caller is left hanging.
        """
        budget = (
            self.config.drain_timeout_s if timeout is None else timeout
        )
        self.draining = True
        self.queue.close()
        em = obs.get_emitter()
        if em.enabled:
            em.emit("service.drain", backlog=self.queue.depth)
        expire = self.clock() + budget
        for t in self._workers:
            t.join(timeout=max(expire - self.clock(), 0.0))
        clean = not any(t.is_alive() for t in self._workers)
        # Deadline-out whatever survived the budget: queued jobs first,
        # then any in-flight coalesce entries a stuck worker holds.
        for job in self.queue.drain_remaining():
            self.coalescer.resolve(
                job.entry,
                error=DeadlineExceeded(
                    "server drained before this request ran",
                    phase="drain",
                ),
            )
        if not clean:
            self.coalescer.abort_all(
                DeadlineExceeded(
                    "server drain timed out mid-execution", phase="drain"
                )
            )
        return clean

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------
    def _count(self, status: str) -> None:
        obs_metrics.registry().counter(
            "service.requests", status=status
        ).inc()
        with self._counts_lock:
            self._status_counts[status] = (
                self._status_counts.get(status, 0) + 1
            )

    def status_snapshot(self) -> Dict[str, Any]:
        """The ``/statusz`` document (also handy for tests and drain)."""
        with self._counts_lock:
            counts = dict(sorted(self._status_counts.items()))
            pipeline_runs = self.pipeline_runs
        return {
            "schema": "repro.service.status/1",
            "draining": self.draining,
            "uptime_s": self.clock() - self.started_at,
            "queue": {
                "depth": self.queue.depth,
                "bound": self.queue.bound,
                "admitted": self.queue.admitted_count,
                "shed": self.queue.shed_count,
            },
            "requests": counts,
            "pipeline_runs": pipeline_runs,
            "inflight": len(self.coalescer),
            "store_entries": len(self.store),
            "breakers": self.breakers.states(),
            "gc": {
                "threshold": list(gc.get_threshold()),
                "collections": [g["collections"] for g in gc.get_stats()],
            },
        }

    def ledger_metrics(self) -> Dict[str, float]:
        """Scalar counters for the drain-time run-ledger row."""
        with self._counts_lock:
            total = sum(self._status_counts.values())
            ok = self._status_counts.get("ok", 0)
            pipeline_runs = self.pipeline_runs
        return {
            "service.requests": float(total),
            "service.ok": float(ok),
            "service.shed": float(self.queue.shed_count),
            "service.pipeline_runs": float(pipeline_runs),
            "service.breaker_trips": float(
                sum(b.trips for b in self.breakers.breakers.values())
            ),
        }

    # ------------------------------------------------------------------
    # The request path.
    # ------------------------------------------------------------------
    def submit(
        self,
        doc: Any,
        body_bytes: Optional[int] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Run one request through the full lifecycle.

        Never raises: every outcome -- success, shed, rejection,
        deadline, even an unexpected internal failure -- comes back as
        ``(http_status, envelope)``.
        """
        t0 = time.perf_counter()
        key: Optional[str] = None
        coalesced = False
        try:
            if body_bytes is not None and \
                    body_bytes > self.config.max_request_bytes:
                raise RequestRejected(
                    f"request body is {body_bytes} bytes; the service "
                    f"caps bodies at {self.config.max_request_bytes}",
                    reason="too-large",
                )
            if self.draining:
                raise ServiceOverloaded(
                    "service is draining and no longer admits requests",
                    retry_after=self.config.retry_after,
                )
            request = protocol.parse_request(
                doc, max_programs=self.config.max_programs
            )
            budget = (
                request.deadline_s
                if request.deadline_s is not None
                else self.config.default_deadline_s
            )
            deadline = Deadline.after(budget)
            cached = self._store_get(request.key)
            if cached is not None:
                return self._respond(
                    t0,
                    protocol.ok_envelope(
                        request.key,
                        cached,
                        cached=True,
                        degraded=self.breakers.degraded_flags(),
                    ),
                )
            # Only a miss validates: a stored payload was computed from
            # these same validated programs under this same check_init,
            # all of which the key covers.  Key is bound afterwards, so
            # a rejection envelope carries none, like any parse failure.
            check_init = request.option("check_init")
            for program in request.programs:
                validate_program(program, check_init=check_init)
            key = request.key
            entry, leader = self.coalescer.lease(key)
            coalesced = not leader
            if leader:
                job = _Job(request, deadline, entry, copy_context())
                try:
                    self.queue.offer(job, priority=request.priority)
                except ServiceOverloaded:
                    # Followers of a shed leader shed too, typed.
                    self.coalescer.resolve(
                        entry,
                        error=ServiceOverloaded(
                            "admission queue full",
                            retry_after=self.config.retry_after,
                        ),
                    )
                    raise
            payload, flags = entry.wait(
                timeout=max(deadline.remaining(), 0.0) + _WAIT_GRACE
            )
            return self._respond(
                t0,
                protocol.ok_envelope(
                    key,
                    payload,
                    coalesced=coalesced,
                    degraded=list(flags) + self.breakers.degraded_flags(),
                ),
            )
        except BaseException as exc:  # typed envelope for EVERYTHING
            return self._respond(
                t0,
                protocol.error_envelope(exc, key=key, coalesced=coalesced),
            )

    def _respond(
        self, t0: float, envelope: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        status = protocol.http_status(envelope)
        label = (
            "ok"
            if envelope["status"] == "ok"
            else envelope["error"]["type"]
        )
        self._count(label)
        obs_metrics.registry().histogram(
            "service.request_seconds",
            bounds=obs_metrics.TIMING_BUCKETS,
        ).observe(time.perf_counter() - t0)
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "service.request",
                status=label,
                http=status,
                key=envelope.get("key", "")[:12],
                cached=envelope.get("cached", False),
                coalesced=envelope.get("coalesced", False),
            )
        return status, envelope

    # ------------------------------------------------------------------
    # Breaker-guarded subsystems.
    # ------------------------------------------------------------------
    def _store_get(self, key: str) -> Optional[Dict[str, Any]]:
        breaker = self.breakers["store"]
        if not breaker.allow():
            return self.store.memory.get(key)
        try:
            payload = self.store.get(key)
        except Exception as exc:
            breaker.failure(f"{type(exc).__name__}: {exc}")
            return None
        # A miss is not evidence of disk health (it may not even have
        # touched the disk), so only a real hit feeds the breaker.
        if payload is not None:
            breaker.success()
        return payload

    def _store_put(self, key: str, payload: Dict[str, Any]) -> None:
        breaker = self.breakers["store"]
        if not breaker.allow():
            self.store.memory.put(key, payload)
            return
        try:
            self.store.put(key, payload)
        except Exception as exc:
            breaker.failure(f"{type(exc).__name__}: {exc}")
        else:
            breaker.success()

    def _verify(self, outcome, flags: List[str]) -> bool:
        """Run the independent verifier behind its breaker.

        A :class:`VerificationError` -- the verifier *rejecting* the
        allocation -- always surfaces typed: that is the one failure
        skipping would turn into silent corruption.  The breaker only
        absorbs the verifier itself crashing.
        """
        from repro.core.verify import verify_outcome

        breaker = self.breakers["verify"]
        if not breaker.allow():
            flags.append("verify:skipped")
            return False
        try:
            verify_outcome(outcome, packets_per_thread=4)
        except VerificationError:
            breaker.success()  # the verifier worked; the outcome failed
            raise
        except Exception as exc:
            breaker.failure(f"{type(exc).__name__}: {exc}")
            flags.append("verify:skipped")
            return False
        breaker.success()
        return True

    def _simulate(
        self, outcome, packets: int, engine: str, flags: List[str]
    ) -> Dict[str, Any]:
        """Run the verdict simulation behind the engine breaker.

        A failing requested engine degrades to the reference
        interpreter (flagged ``engine:reference``); reference failures
        surface typed -- there is nothing left to fall back to.
        """
        from repro.sim.run import run_threads

        def _run(engine_name: str) -> Dict[str, Any]:
            result = run_threads(
                list(outcome.programs),
                packets_per_thread=packets,
                nreg=outcome.inter.nreg,
                engine=engine_name,
                max_cycles=VERDICT_MAX_CYCLES,
            )
            return protocol.verdict_payload(result.stats)

        breaker = self.breakers["engine"]
        if engine != "reference" and not breaker.allow():
            flags.append("engine:reference")
            return _run("reference")
        try:
            verdict = _run(engine)
        except SimulationError as exc:
            if engine == "reference":
                raise
            breaker.failure(f"{type(exc).__name__}: {exc}")
            flags.append("engine:reference")
            return _run("reference")
        breaker.success()
        return verdict

    # ------------------------------------------------------------------
    # Worker side.
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.take()
            if job is None:
                return
            job.context.run(self._execute, job)

    def _execute(self, job: _Job) -> None:
        """One admitted request, end to end; resolves the coalesce entry
        exactly once whatever happens."""
        flags: List[str] = []
        try:
            spec = faults.fire(
                "service.handler", key=job.request.key[:12]
            )
            if spec is not None:
                raise InjectedFault(
                    f"injected service handler fault for "
                    f"{job.request.key[:12]}"
                )
            job.deadline.check("dequeue")
            opts = dict(job.request.options)
            outcome = allocate_programs(
                list(job.request.programs),
                nreg=opts["nreg"],
                check_init=opts["check_init"],
                policy=opts["policy"],
                deadline=job.deadline,
            )
            with self._counts_lock:
                self.pipeline_runs += 1
            payload = protocol.outcome_payload(outcome)
            if opts["verify"]:
                job.deadline.check("verify")
                if self._verify(outcome, flags):
                    payload["verified"] = True
            if opts["simulate"]:
                job.deadline.check("simulate")
                payload["verdict"] = self._simulate(
                    outcome, opts["simulate"], opts["engine"], flags
                )
            # Degraded payloads are served but never stored: the store's
            # replay contract is "the healthy payload, byte-identical",
            # and a later healthy request should recompute.
            if not flags:
                self._store_put(job.request.key, payload)
            self.coalescer.resolve(job.entry, result=(payload, flags))
        except BaseException as exc:
            self.coalescer.resolve(job.entry, error=exc)


# ----------------------------------------------------------------------
# HTTP skin.
# ----------------------------------------------------------------------
class _Handler(http.server.BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP adapter around the bound :class:`ServiceCore`."""

    core: ServiceCore  # bound by _make_handler
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the service speaks through repro.obs, not stderr

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        """Write one response; every response leaves through here."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        doc: Any,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode()
        self._send(status, body, extra_headers=extra_headers)

    def _send_envelope(self, status: int, envelope: Dict[str, Any]) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        err = envelope.get("error") or {}
        if "retry_after" in err:
            # RFC 9110 delay-seconds is 1*DIGIT: whole seconds, rounded
            # up so the header never asks for less than the envelope.
            headers = (("Retry-After", str(math.ceil(err["retry_after"]))),)
        self._send_json(status, envelope, headers)

    def do_GET(self) -> None:  # noqa: N802
        core = self.core
        if self.path == "/healthz":
            self._send_json(
                200,
                {"ok": True, "uptime_s": core.clock() - core.started_at},
            )
        elif self.path == "/readyz":
            ready = core.started and not core.draining
            self._send_json(
                200 if ready else 503,
                {"ready": ready, "draining": core.draining},
            )
        elif self.path == "/statusz":
            self._send_json(200, core.status_snapshot())
        elif self.path == "/metrics":
            from repro.obs.export import to_prometheus

            body = to_prometheus(
                obs_metrics.registry().snapshot()
            ).encode()
            self._send(200, body, "text/plain; version=0.0.4")
        else:
            self._send_envelope(
                404,
                protocol.error_envelope(
                    RequestRejected(
                        f"no such endpoint {self.path!r}",
                        reason="bad-field",
                    )
                ),
            )

    def do_POST(self) -> None:  # noqa: N802
        core = self.core
        if self.path != "/v1/allocate":
            self._send_envelope(
                404,
                protocol.error_envelope(
                    RequestRejected(
                        f"no such endpoint {self.path!r}",
                        reason="bad-field",
                    )
                ),
            )
            return
        # RFC 9110 8.6: Content-Length is 1*DIGIT, once the surrounding
        # whitespace (not part of a field value) is dropped.  int() would
        # also take "-1" (read to EOF: a hang), "+2" or "1_0".  Without
        # a valid length the body cannot be framed, so the connection
        # closes: its unread bytes must not be read as the next request.
        raw_length = self.headers.get("Content-Length")
        digits = (raw_length or "").strip(" \t")
        if not (digits.isascii() and digits.isdigit()):
            self.close_connection = True
            if raw_length is None:
                status, message = 411, "request needs a Content-Length header"
            else:
                status, message = 400, (
                    f"Content-Length must be a decimal byte count, got "
                    f"{raw_length!r}"
                )
            self._send_envelope(
                status, protocol.error_envelope(RequestRejected(message))
            )
            return
        length = int(digits)
        if length > core.config.max_request_bytes:
            # Reject before reading the body; close the connection so
            # the unread bytes cannot poison keep-alive framing.
            envelope = protocol.error_envelope(
                RequestRejected(
                    f"request body is {length} bytes; the service caps "
                    f"bodies at {core.config.max_request_bytes}",
                    reason="too-large",
                )
            )
            self.close_connection = True
            self._send_envelope(413, envelope)
            return
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            self._send_envelope(
                400,
                protocol.error_envelope(
                    RequestRejected(f"request body is not JSON: {exc}")
                ),
            )
            return
        status, envelope = core.submit(doc, body_bytes=length)
        self._send_envelope(status, envelope)


def _make_handler(core: ServiceCore) -> type:
    return type("BoundHandler", (_Handler,), {"core": core})


class _ThreadingServer(http.server.ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class ReproServer:
    """One :class:`ServiceCore` behind a threading HTTP server.  Its
    connection threads start in an empty context, so HTTP requests run
    under :mod:`repro.scope`'s process defaults."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        clock=time.monotonic,
    ):
        self.core = ServiceCore(config, clock=clock)
        self.httpd = _ThreadingServer(
            (host, port), _make_handler(self.core)
        )
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` -- the real port when 0 was asked."""
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Start workers and serve in a background thread (idempotent)."""
        self.core.start()
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="repro-service-http",
                daemon=True,
            )
            self._serve_thread.start()

    def drain_and_stop(self, timeout: Optional[float] = None) -> bool:
        """SIGTERM semantics: stop admitting, drain, then stop serving.

        Health endpoints keep answering during the drain (``/readyz``
        goes 503 immediately) so orchestrators can watch it happen.
        Returns True when the drain finished within its budget.
        """
        clean = self.core.drain(timeout)
        self.httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self.httpd.server_close()
        return clean

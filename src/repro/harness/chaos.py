"""The chaos harness: fault scenarios x kernels, with a hard gate.

Each :class:`Scenario` arms one deterministic fault plan
(:mod:`repro.resilience.faults`) and drives the subsystem that hosts
the fault site -- allocation pipeline, analysis cache, parallel sweep,
or simulator -- over real suite kernels.  Every run is classified:

``clean``
    no fault fired and the work succeeded (the baseline scenarios).
``masked``
    at least one fault fired, yet the work succeeded *and* the
    independent verifier (:func:`repro.core.verify.verify_outcome`)
    passed -- the degradation ladder absorbed the fault.
``typed-error``
    the work raised a :class:`~repro.errors.ReproError` subclass: the
    fault surfaced, but as a typed, documented failure.
``unhandled``
    anything else escaped -- an automatic gate failure.

The gate (:meth:`ChaosReport.ok`): every scenario's outcome matches its
expectation, and nothing is ever ``unhandled``.  Silent corruption
cannot pass -- scenarios that run the simulator compare observable
outputs against a fault-free oracle (run under
:func:`repro.resilience.faults.suspended`) and convert any divergence
into a typed :class:`~repro.errors.InjectedFault`; scenarios that
allocate run the verifier strictly, so a masked-but-wrong allocation
becomes a typed :class:`~repro.errors.VerificationError`.

Watchdog coverage rides along: the ``sim-stuck`` scenario injects a
wake-up that never arrives and the ``runaway-*`` scenarios run a
non-terminating program on each engine (reference and fast); all of
them must end in :class:`~repro.errors.WatchdogError`, never a hang.

CLI: ``repro chaos [--kernels a,b,c] [--scenarios x,y] [--seed N]
[--json OUT]`` -- exits non-zero when the gate fails (the CI
``chaos-smoke`` job runs exactly this).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import cache as cache_mod
from repro.core.pipeline import allocate_programs
from repro.core.verify import verify_outcome
from repro.errors import InjectedFault, ReproError
from repro.ir.program import Program
from repro.resilience import faults, guard
from repro.resilience.faults import FaultSpec
from repro.suite.registry import load

#: Register budget for the two-thread chaos PUs (roomy on purpose: the
#: scenarios stress faults, not allocation pressure).
CHAOS_NREG = 96
#: Packet workload for the differential simulator runs.
CHAOS_PACKETS = 8
#: Cycle watchdog for every chaos simulation; the stuck-thread fault
#: jumps the clock past this instantly, so nothing ever wall-hangs.
CHAOS_MAX_CYCLES = 2_000_000


@dataclass(frozen=True)
class Scenario:
    """One named fault scenario."""

    name: str
    description: str
    specs: Tuple[FaultSpec, ...]
    #: ``clean`` / ``masked`` / ``typed-error`` / ``masked-or-error``.
    expect: str
    body: Callable[["_Ctx"], None]


@dataclass
class _Ctx:
    """Everything a scenario body needs."""

    programs: List[Program]
    nreg: int
    tmp_dir: Optional[str] = None


@dataclass
class ScenarioResult:
    """Outcome of one scenario on one kernel."""

    scenario: str
    kernel: str
    expect: str
    outcome: str
    error: str = ""
    fired: List[Dict[str, Any]] = field(default_factory=list)
    degradations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.outcome == "unhandled":
            return False
        if self.expect == "masked-or-error":
            return self.outcome in ("masked", "typed-error")
        return self.outcome == self.expect

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "kernel": self.kernel,
            "expect": self.expect,
            "outcome": self.outcome,
            "ok": self.ok,
            "error": self.error,
            "fired": self.fired,
            "degradations": self.degradations,
        }


@dataclass
class ChaosReport:
    """Every scenario result of one chaos sweep."""

    results: List[ScenarioResult]
    seed: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "results": [r.to_dict() for r in self.results],
        }


# ----------------------------------------------------------------------
# Scenario bodies.
# ----------------------------------------------------------------------
def _body_alloc_verify(ctx: _Ctx) -> None:
    """Allocate and strictly verify (faults in the pipeline/analysis
    sites fire inside ``allocate_programs``)."""
    outcome = allocate_programs(ctx.programs, ctx.nreg)
    verify_outcome(outcome, packets_per_thread=CHAOS_PACKETS)


def _body_cache(ctx: _Ctx) -> None:
    """Warm the disk cache, drop the memory layer, reload through the
    armed ``cache.disk`` fault, then verify the re-allocation."""
    import pathlib

    cache = cache_mod.get_cache()
    cache.cache_dir = pathlib.Path(ctx.tmp_dir)
    allocate_programs(ctx.programs, ctx.nreg)
    cache.clear()  # force the next analyze through the disk layer
    outcome = allocate_programs(ctx.programs, ctx.nreg)
    verify_outcome(outcome, packets_per_thread=CHAOS_PACKETS)


def _sweep_worker(x: int) -> int:
    """Module-level (picklable) sweep worker."""
    return x * x


def _body_sweep(ctx: _Ctx) -> None:
    """Run a parallel sweep through the armed ``sweep.pool`` fault and
    require the recovered results to be exactly the serial answer."""
    import warnings

    from repro.harness.sweep import sweep_map

    items = list(range(8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = sweep_map(_sweep_worker, items, jobs=2, label="chaos")
    if got != [x * x for x in items]:
        raise InjectedFault(
            f"sweep returned corrupted results after pool fault: {got}"
        )


def _body_sim(ctx: _Ctx) -> None:
    """Allocated paranoid run with simulator faults armed, compared
    against a fault-free oracle; divergence becomes a typed error."""
    from repro.sim.run import outputs_match, run_reference, run_threads

    with faults.suspended():
        outcome = allocate_programs(ctx.programs, ctx.nreg)
        oracle = run_reference(
            outcome.source_programs,
            packets_per_thread=CHAOS_PACKETS,
            nreg=ctx.nreg,
            engine="reference",
            max_cycles=CHAOS_MAX_CYCLES,
        )
    allocated = run_threads(
        outcome.programs,
        packets_per_thread=CHAOS_PACKETS,
        nreg=ctx.nreg,
        assignment=outcome.assignment,
        engine="reference",
        max_cycles=CHAOS_MAX_CYCLES,
    )
    if not outputs_match(oracle, allocated):
        raise InjectedFault(
            "injected register corruption reached observable outputs"
        )


def _spin_program() -> Program:
    from repro.ir.parser import parse_program

    return parse_program("spin:\n br spin\n", "spin")


def _body_runaway_reference(ctx: _Ctx) -> None:
    from repro.sim.machine import Machine

    Machine([_spin_program()]).run(max_cycles=5_000)


def _body_runaway_fast(ctx: _Ctx) -> None:
    from repro.sim.fast import FastMachine

    FastMachine([_spin_program()]).run(max_cycles=5_000)


def _service_doc(ctx: _Ctx, nreg: int) -> Dict[str, Any]:
    """A service request for the scenario's programs at ``nreg``."""
    from repro.ir.printer import format_program

    return {
        "programs": [
            {"asm": format_program(p), "name": f"t{i}"}
            for i, p in enumerate(ctx.programs)
        ],
        "nreg": nreg,
    }


def _service_expected(ctx: _Ctx, nreg: int) -> Dict[str, Any]:
    """The direct-pipeline payload oracle, computed fault-free."""
    from repro.ir.parser import parse_program
    from repro.ir.printer import format_program
    from repro.service import protocol as sproto

    with faults.suspended():
        programs = [
            parse_program(format_program(p), f"t{i}")
            for i, p in enumerate(ctx.programs)
        ]
        return sproto.outcome_payload(allocate_programs(programs, nreg))


def _body_service_handler(ctx: _Ctx) -> None:
    """A worker dies mid-request; the caller gets a *typed* envelope,
    and an immediate retry serves the byte-identical healthy payload."""
    from repro.service.server import ServiceConfig, ServiceCore

    core = ServiceCore(ServiceConfig(workers=1, queue_depth=4))
    core.start()
    try:
        doc = _service_doc(ctx, ctx.nreg)
        status, envelope = core.submit(doc)
        if status != 500 or envelope["error"]["type"] != "InjectedFault":
            raise InjectedFault(
                f"handler fault did not surface as a typed envelope: "
                f"HTTP {status}, {envelope.get('error')}"
            )
        status, envelope = core.submit(doc)
        if status != 200:
            raise InjectedFault(
                f"retry after the handler fault failed: "
                f"{envelope['error']}"
            )
        if envelope["result"] != _service_expected(ctx, ctx.nreg):
            raise InjectedFault(
                "service payload diverged from the direct pipeline call"
            )
    finally:
        core.drain(5.0)


def _body_service_store(ctx: _Ctx) -> None:
    """The result store's disk write fails mid-request; the request
    still succeeds, the memory overlay keeps replay idempotent, and the
    payload stays byte-identical to the direct call."""
    import pathlib

    from repro.service.server import ServiceConfig, ServiceCore

    store_dir = pathlib.Path(ctx.tmp_dir) / "service-store"
    core = ServiceCore(
        ServiceConfig(workers=1, queue_depth=4, store_dir=str(store_dir))
    )
    core.start()
    try:
        doc = _service_doc(ctx, ctx.nreg)
        status, envelope = core.submit(doc)
        if status != 200:
            raise InjectedFault(
                f"request failed on an injected store write fault "
                f"(the breaker should absorb it): {envelope['error']}"
            )
        status, replay = core.submit(doc)
        if status != 200 or not replay["cached"] \
                or replay["result"] != envelope["result"]:
            raise InjectedFault(
                "memory overlay did not cover the failed disk write"
            )
        if envelope["result"] != _service_expected(ctx, ctx.nreg):
            raise InjectedFault(
                "service payload diverged from the direct pipeline call"
            )
    finally:
        core.drain(5.0)


def _body_service_breaker(ctx: _Ctx) -> None:
    """Repeated store failures trip the circuit breaker (requests keep
    succeeding memory-only); after the cooldown the half-open probe
    recovers it and disk persistence resumes."""
    import pathlib

    from repro.service.server import ServiceConfig, ServiceCore

    clk = {"t": 0.0}
    store_dir = pathlib.Path(ctx.tmp_dir) / "service-store"
    core = ServiceCore(
        ServiceConfig(
            workers=1,
            queue_depth=8,
            store_dir=str(store_dir),
            breaker_threshold=2,
            breaker_cooldown=5.0,
        ),
        clock=lambda: clk["t"],
    )
    core.start()
    try:
        # Distinct budgets -> distinct keys -> one store write each
        # (growing, so every budget stays feasible).
        for nreg in (ctx.nreg, ctx.nreg + 8):
            status, envelope = core.submit(_service_doc(ctx, nreg))
            if status != 200:
                raise InjectedFault(
                    f"request failed during store faults: "
                    f"{envelope['error']}"
                )
        if core.breakers["store"].state != "open":
            raise InjectedFault(
                "store breaker did not trip after repeated write "
                f"failures (state: {core.breakers['store'].state})"
            )
        clk["t"] += 6.0  # past the cooldown: next call is the probe
        status, envelope = core.submit(_service_doc(ctx, ctx.nreg + 16))
        if status != 200:
            raise InjectedFault(
                f"half-open probe request failed: {envelope['error']}"
            )
        if core.breakers["store"].state != "closed":
            raise InjectedFault(
                "store breaker did not recover after the cooldown "
                f"probe (state: {core.breakers['store'].state})"
            )
        if not list(store_dir.glob("*.json")):
            raise InjectedFault(
                "recovered store never persisted an entry to disk"
            )
        if envelope["result"] != _service_expected(ctx, ctx.nreg + 16):
            raise InjectedFault(
                "service payload diverged from the direct pipeline call"
            )
    finally:
        core.drain(5.0)


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="baseline",
        description="no faults: allocate, verify, differential run",
        specs=(),
        expect="clean",
        body=_body_sim,
    ),
    Scenario(
        name="analyze-transient",
        description="one transient analysis blip, absorbed by retry",
        specs=(FaultSpec("pipeline.analyze", mode="transient", count=1),),
        expect="masked",
        body=_body_alloc_verify,
    ),
    Scenario(
        name="analyze-transient-storm",
        description="transient analysis failures outlasting the retry "
        "budget surface as a typed TransientError",
        specs=(FaultSpec("pipeline.analyze", mode="transient", count=3),),
        expect="typed-error",
        body=_body_alloc_verify,
    ),
    Scenario(
        name="dense-analysis-fault",
        description="dense kernel raises; degraded to the reference "
        "analysis implementation",
        specs=(FaultSpec("analysis.dense", mode="error", count=1),),
        expect="masked",
        body=_body_alloc_verify,
    ),
    Scenario(
        name="cache-corrupt",
        description="corrupted disk cache entry is quarantined and "
        "recomputed",
        specs=(FaultSpec("cache.disk", mode="corrupt", count=1),),
        expect="masked",
        body=_body_cache,
    ),
    Scenario(
        name="cache-truncate",
        description="truncated disk cache entry is quarantined and "
        "recomputed",
        specs=(FaultSpec("cache.disk", mode="truncate", count=1),),
        expect="masked",
        body=_body_cache,
    ),
    Scenario(
        name="sweep-pool-crash",
        description="process pool breaks mid-sweep; missing items "
        "finish serially with correct results",
        specs=(FaultSpec("sweep.pool", mode="crash", count=1),),
        expect="masked",
        body=_body_sweep,
    ),
    Scenario(
        name="sweep-pool-hang",
        description="a sweep worker hangs; the pool is abandoned and "
        "the sweep finishes serially",
        specs=(FaultSpec("sweep.pool", mode="hang", count=1),),
        expect="masked",
        body=_body_sweep,
    ),
    Scenario(
        name="sim-stuck",
        description="a blocked thread's wake-up never arrives; the "
        "cycle watchdog fires instead of hanging",
        specs=(FaultSpec("sim.stuck", mode="stuck", after=2, count=1),),
        expect="typed-error",
        body=_body_sim,
    ),
    Scenario(
        name="sim-bitflip",
        description="a register bit flips at a context switch; caught "
        "by the paranoid checker or the differential oracle, or "
        "provably benign",
        specs=(FaultSpec("sim.bitflip", mode="bitflip", after=1, count=1),),
        expect="masked-or-error",
        body=_body_sim,
    ),
    Scenario(
        name="service-handler-fault",
        description="a service worker dies mid-request; the caller "
        "gets a typed envelope and the retry serves the byte-identical "
        "healthy payload",
        specs=(FaultSpec("service.handler", mode="error", count=1),),
        expect="masked",
        body=_body_service_handler,
    ),
    Scenario(
        name="service-store-fault",
        description="the result store's disk write fails; the breaker "
        "absorbs it, the memory overlay keeps replay idempotent, and "
        "the payload matches the direct pipeline call",
        specs=(FaultSpec("service.store", mode="error", count=1),),
        expect="masked",
        body=_body_service_store,
    ),
    Scenario(
        name="service-breaker-trip",
        description="repeated store failures trip the circuit breaker "
        "(requests keep succeeding memory-only); the cooldown probe "
        "recovers it and disk persistence resumes",
        specs=(FaultSpec("service.store", mode="error", count=2),),
        expect="masked",
        body=_body_service_breaker,
    ),
    Scenario(
        name="runaway-reference",
        description="non-terminating program on the reference engine "
        "trips the watchdog",
        specs=(),
        expect="typed-error",
        body=_body_runaway_reference,
    ),
    Scenario(
        name="runaway-fast",
        description="non-terminating program on the fast engine trips "
        "the watchdog",
        specs=(),
        expect="typed-error",
        body=_body_runaway_fast,
    ),
)

_BY_NAME = {s.name: s for s in SCENARIOS}

#: Scenarios that only exercise the simulator watchdog and need no
#: per-kernel repetition (the kernel programs are not even used).
_KERNEL_FREE = frozenset({"runaway-reference", "runaway-fast"})


def _scenario_seed(base: int, scenario: str, kernel: str) -> int:
    """Deterministic per-(scenario, kernel) fault seed."""
    return base ^ zlib.crc32(f"{scenario}:{kernel}".encode())


def run_scenario(
    scenario: Scenario,
    kernel: str,
    seed: int = 0,
    nreg: int = CHAOS_NREG,
) -> ScenarioResult:
    """Run one scenario against a two-thread PU of ``kernel`` copies."""
    import tempfile

    programs = (
        [] if scenario.name in _KERNEL_FREE else [load(kernel), load(kernel)]
    )
    result = ScenarioResult(
        scenario=scenario.name,
        kernel=kernel,
        expect=scenario.expect,
        outcome="clean",
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        ctx = _Ctx(programs=programs, nreg=nreg, tmp_dir=tmp)
        # Fresh cache per scenario: earlier scenarios must not have
        # pre-warmed the fingerprints this one wants to fault on.
        with cache_mod.scoped(), guard.watching() as degs:
            with faults.inject(
                *scenario.specs,
                seed=_scenario_seed(seed, scenario.name, kernel),
            ) as plan:
                try:
                    scenario.body(ctx)
                except ReproError as exc:
                    result.outcome = "typed-error"
                    result.error = f"{type(exc).__name__}: {exc}"
                except Exception as exc:  # the gate's red line
                    result.outcome = "unhandled"
                    result.error = f"{type(exc).__name__}: {exc}"
                else:
                    result.outcome = "masked" if plan.fired else "clean"
            result.fired = [r.to_dict() for r in plan.fired]
        result.degradations = [d.to_dict() for d in degs]
    return result


def run_chaos(
    kernels: Sequence[str] = ("crc", "frag", "md5"),
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    nreg: int = CHAOS_NREG,
) -> ChaosReport:
    """Sweep ``scenarios`` (default: all) over ``kernels``."""
    chosen: List[Scenario] = []
    for name in scenarios if scenarios is not None else _BY_NAME:
        if name not in _BY_NAME:
            known = ", ".join(_BY_NAME)
            raise ValueError(f"unknown scenario {name!r}; known: {known}")
        chosen.append(_BY_NAME[name])
    results: List[ScenarioResult] = []
    for scenario in chosen:
        targets = ["-"] if scenario.name in _KERNEL_FREE else list(kernels)
        for kernel in targets:
            results.append(run_scenario(scenario, kernel, seed=seed, nreg=nreg))
    return ChaosReport(results=results, seed=seed)


def render_chaos(report: ChaosReport) -> str:
    """Human-readable scenario table plus the gate verdict."""
    lines = [
        f"{'scenario':26} {'kernel':8} {'expect':16} {'outcome':12} ok",
        "-" * 70,
    ]
    for r in report.results:
        mark = "yes" if r.ok else "NO"
        lines.append(
            f"{r.scenario:26} {r.kernel:8} {r.expect:16} {r.outcome:12} {mark}"
        )
        if r.error and not r.ok:
            lines.append(f"    {r.error}")
    lines.append("")
    lines.append(f"chaos gate: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)

"""The service wire protocol: requests, canonical options, envelopes.

One request allocates registers for one PU -- a list of thread
programs (inline assembly or suite kernel references) plus a register
budget and pipeline options -- and comes back as a **response
envelope**: a schema-versioned JSON object whose ``result`` payload is
byte-identical to what a direct :func:`repro.core.pipeline.
allocate_programs` call would produce for the same inputs (the
service's correctness contract, gated in CI), or a **typed error**
drawn from the documented taxonomy.  Nothing the server returns is
ever an untyped 500: every :class:`~repro.errors.ReproError` subclass
maps to a stable ``error.type`` string and an HTTP status.

Request shape (``POST /v1/allocate``)::

    {"programs": [{"kernel": "crc"}, {"asm": "start: ...", "name": "t1"}],
     "nreg": 32,
     "policy": "greedy",          # or "round_robin"
     "check_init": true,
     "simulate": 0,               # packets per thread; 0 = no verdict
     "engine": "reference",       # verdict engine
     "verify": false,             # run the independent verifier
     "priority": 1,               # 0 urgent / 1 normal / 2 batch
     "deadline_s": 30.0}          # per-request wall-clock budget

Response envelope (``schema: repro.service/1``)::

    {"schema": "repro.service/1", "status": "ok",
     "key": "6b52...",            # content address of the request
     "cached": false,             # served from the result store
     "coalesced": false,          # shared an in-flight execution
     "degraded": [],              # e.g. ["store:open", "verify:skipped"]
     "result": {...}}             # see outcome_payload()

    {"schema": "repro.service/1", "status": "error",
     "key": "...",                # omitted on parse/validation failures
     "error": {"type": "ServiceOverloaded", "message": "...",
               "retry_after": 0.05}}

The **request key** is a sha256 over the program fingerprints
(:meth:`repro.ir.program.Program.fingerprint`) and the canonical
options -- the same content-addressing discipline as the analysis
cache.  Two textually different requests for the same programs and
options share one key, hence one in-flight execution
(:mod:`repro.service.coalesce`) and one result-store entry
(:mod:`repro.service.store`).

Error taxonomy (``error.type`` -> HTTP status):

=====================  ====  ==============================================
type                   code  meaning
=====================  ====  ==============================================
``RequestRejected``    400   malformed body / unknown field / bad value
                             (``413`` when ``reason`` is ``too-large``)
``AsmSyntaxError``     400   inline assembly failed to parse
``ValidationError``    400   a program violates a structural rule
``AllocationError``    422   the budget is infeasible for these threads
``ServiceOverloaded``  429   admission queue full or server draining
                             (carries ``retry_after``)
``DeadlineExceeded``   504   the request's wall-clock budget ran out
(other ReproError)     500   typed internal failure (e.g. a surfaced
                             ``InjectedFault`` under chaos)
=====================  ====  ==============================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import errors
from repro.core.pipeline import AllocationOutcome
from repro.errors import (
    DeadlineExceeded,
    ReproError,
    RequestRejected,
    ServiceOverloaded,
)
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.suite.registry import load as load_kernel

SCHEMA = "repro.service/1"

#: Canonical option defaults.  Options are *always* fully materialized
#: before hashing, so a request that spells out a default and one that
#: omits it share a key.
OPTION_DEFAULTS: Dict[str, Any] = {
    "nreg": 32,
    "policy": "greedy",
    "check_init": True,
    "simulate": 0,
    "engine": "reference",
    "verify": False,
}

#: Fields allowed at the top level of a request (everything else is a
#: typed rejection -- silently ignoring unknown fields would let typos
#: change semantics without an error).
REQUEST_FIELDS = frozenset(
    set(OPTION_DEFAULTS) | {"programs", "priority", "deadline_s"}
)

_POLICIES = ("greedy", "round_robin")
_VERDICT_ENGINES = ("reference", "fast", "auto")

#: Priorities: 0 urgent, 1 normal (default), 2 batch.
PRIORITIES = (0, 1, 2)

#: Largest accepted ``deadline_s``: far beyond any allocation, and far
#: below the timeout ``threading`` waits accept on any platform.
MAX_DEADLINE_S = 3600.0

#: Hard ceiling on threads per request -- a PU has a fixed number of
#: hardware threads; admission rejects anything larger before analysis.
MAX_PROGRAMS = 8

#: Hard ceiling on instructions per inline program.
MAX_INSTRS = 20_000

#: HTTP status per error type (see the module table).
ERROR_STATUS: Dict[str, int] = {
    "RequestRejected": 400,
    "AsmSyntaxError": 400,
    "ValidationError": 400,
    "AllocationError": 422,
    "ServiceOverloaded": 429,
    "DeadlineExceeded": 504,
}


@dataclass(frozen=True)
class ServiceRequest:
    """A parsed, content-addressed allocation request.

    Its programs are not yet structurally validated:
    :meth:`~repro.service.server.ServiceCore.submit` validates them on a
    result-store miss.
    """

    programs: Tuple[Program, ...]
    options: Tuple[Tuple[str, Any], ...]  #: canonical, sorted pairs
    priority: int
    deadline_s: Optional[float]
    key: str
    fingerprints: Tuple[str, ...] = field(default=())

    def option(self, name: str) -> Any:
        return dict(self.options)[name]


def _reject(message: str, reason: str = "malformed") -> RequestRejected:
    return RequestRejected(message, reason=reason)


def _parse_one_program(doc: Any, index: int) -> Program:
    if not isinstance(doc, Mapping):
        raise _reject(
            f"programs[{index}] must be an object with 'kernel' or 'asm', "
            f"got {type(doc).__name__}",
            reason="bad-field",
        )
    unknown = set(doc) - {"kernel", "asm", "name"}
    if unknown:
        raise _reject(
            f"programs[{index}] has unknown field(s) "
            f"{sorted(unknown)}", reason="bad-field",
        )
    kernel = doc.get("kernel")
    asm = doc.get("asm")
    if (kernel is None) == (asm is None):
        raise _reject(
            f"programs[{index}] needs exactly one of 'kernel' or 'asm'",
            reason="bad-field",
        )
    if kernel is not None:
        if not isinstance(kernel, str):
            raise _reject(
                f"programs[{index}].kernel must be a string",
                reason="bad-field",
            )
        try:
            return load_kernel(kernel)
        except KeyError as exc:
            raise _reject(
                f"programs[{index}]: {exc.args[0]}", reason="bad-field"
            ) from None
    if not isinstance(asm, str):
        raise _reject(
            f"programs[{index}].asm must be a string", reason="bad-field"
        )
    name = doc.get("name", f"t{index}")
    if not isinstance(name, str) or not name:
        raise _reject(
            f"programs[{index}].name must be a non-empty string",
            reason="bad-field",
        )
    # AsmSyntaxError propagates typed; structural validation waits for
    # a store miss, where kernel programs are checked identically.
    program = parse_program(asm, name)
    if len(program.instrs) > MAX_INSTRS:
        raise _reject(
            f"programs[{index}] has {len(program.instrs)} instructions; "
            f"the service caps inline programs at {MAX_INSTRS}",
            reason="too-large",
        )
    return program


def canonical_options(doc: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Materialize and validate the pipeline options of a request.

    Returns sorted ``(name, value)`` pairs with every default filled in
    -- the exact bytes that feed :func:`request_key`.
    """
    opts: Dict[str, Any] = dict(OPTION_DEFAULTS)
    for name in OPTION_DEFAULTS:
        if name in doc:
            opts[name] = doc[name]
    nreg = opts["nreg"]
    if not isinstance(nreg, int) or isinstance(nreg, bool) \
            or not 1 <= nreg <= 4096:
        raise _reject(
            f"nreg must be an integer in [1, 4096], got {nreg!r}",
            reason="bad-field",
        )
    if opts["policy"] not in _POLICIES:
        raise _reject(
            f"policy must be one of {_POLICIES}, got {opts['policy']!r}",
            reason="bad-field",
        )
    if not isinstance(opts["check_init"], bool):
        raise _reject("check_init must be a boolean", reason="bad-field")
    simulate = opts["simulate"]
    if not isinstance(simulate, int) or isinstance(simulate, bool) \
            or not 0 <= simulate <= 1024:
        raise _reject(
            f"simulate must be an integer packet count in [0, 1024], "
            f"got {simulate!r}",
            reason="bad-field",
        )
    if opts["engine"] not in _VERDICT_ENGINES:
        raise _reject(
            f"engine must be one of {_VERDICT_ENGINES}, "
            f"got {opts['engine']!r}",
            reason="bad-field",
        )
    if not isinstance(opts["verify"], bool):
        raise _reject("verify must be a boolean", reason="bad-field")
    return tuple(sorted(opts.items()))


def request_key(
    fingerprints: Sequence[str], options: Tuple[Tuple[str, Any], ...]
) -> str:
    """Content address of one request: programs (in thread order) plus
    canonical options.  Priority and deadline are *not* part of the key
    -- they shape scheduling, not the result."""
    h = hashlib.sha256()
    h.update(SCHEMA.encode())
    for fp in fingerprints:
        h.update(b"\x1ep")
        h.update(fp.encode())
    h.update(b"\x1eo")
    h.update(json.dumps(list(options), sort_keys=True).encode())
    return h.hexdigest()


def parse_request(
    doc: Any, max_programs: int = MAX_PROGRAMS
) -> ServiceRequest:
    """Turn a decoded request body into a :class:`ServiceRequest`.

    Checks the shape, the options, ``priority`` and ``deadline_s``,
    parses every program, applies the :data:`MAX_INSTRS` cap and
    derives the fingerprints and key.  Raises typed
    :class:`~repro.errors.RequestRejected` /
    :class:`~repro.errors.AsmSyntaxError` -- never does any analysis
    or allocation work, so malformed traffic is rejected cheaply.

    Structural validation (:func:`~repro.ir.validate.validate_program`)
    is not done here.  The lifecycle is parse -> replay -> validate:
    :meth:`~repro.service.server.ServiceCore.submit` validates only on a
    result-store miss, because a stored payload proves that the programs
    under its key passed validation with its ``check_init``.
    """
    if not isinstance(doc, Mapping):
        raise _reject(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    unknown = set(doc) - REQUEST_FIELDS
    if unknown:
        raise _reject(
            f"unknown request field(s) {sorted(unknown)}; known: "
            f"{sorted(REQUEST_FIELDS)}",
            reason="bad-field",
        )
    raw_programs = doc.get("programs")
    if not isinstance(raw_programs, Sequence) or isinstance(
        raw_programs, (str, bytes)
    ) or not raw_programs:
        raise _reject(
            "request needs a non-empty 'programs' array", reason="bad-field"
        )
    if len(raw_programs) > max_programs:
        raise _reject(
            f"request has {len(raw_programs)} programs; the service caps "
            f"threads per PU at {max_programs}",
            reason="too-large",
        )
    options = canonical_options(doc)
    priority = doc.get("priority", 1)
    if isinstance(priority, bool) or priority not in PRIORITIES:
        raise _reject(
            f"priority must be one of {PRIORITIES}, got {priority!r}",
            reason="bad-field",
        )
    deadline_s = doc.get("deadline_s")
    if deadline_s is not None:
        # NaN fails both comparisons, so it is rejected too.
        if not isinstance(deadline_s, (int, float)) or isinstance(
            deadline_s, bool
        ) or not 0 <= deadline_s <= MAX_DEADLINE_S:
            raise _reject(
                f"deadline_s must be a number in [0, {MAX_DEADLINE_S:g}], "
                f"got {deadline_s!r}",
                reason="bad-field",
            )
        deadline_s = float(deadline_s)
    programs = [_parse_one_program(p, i) for i, p in enumerate(raw_programs)]
    fingerprints = tuple(p.fingerprint() for p in programs)
    return ServiceRequest(
        programs=tuple(programs),
        options=options,
        priority=priority,
        deadline_s=deadline_s,
        key=request_key(fingerprints, options),
        fingerprints=fingerprints,
    )


# ----------------------------------------------------------------------
# Result payloads and envelopes.
# ----------------------------------------------------------------------
def outcome_payload(outcome: AllocationOutcome) -> Dict[str, Any]:
    """The deterministic allocation payload of a response envelope.

    A pure function of the :class:`AllocationOutcome`, shared by the
    service worker and by tests/CI asserting the byte-identity contract
    against a direct pipeline call.
    """
    return {
        "nreg": outcome.inter.nreg,
        "sgr": outcome.sgr,
        "total_registers": outcome.total_registers,
        "total_moves": outcome.total_moves,
        "threads": [
            {
                "name": t.name,
                "pr": t.pr,
                "sr": t.sr,
                "move_cost": t.move_cost,
                "private_base": m.private_base,
            }
            for t, m in zip(outcome.inter.threads, outcome.assignment.maps)
        ],
        "programs": [format_program(p) for p in outcome.programs],
        "source_fingerprints": [
            p.fingerprint() for p in outcome.source_programs
        ],
        "fingerprints": [p.fingerprint() for p in outcome.programs],
        "summary": outcome.summary(),
    }


def verdict_payload(stats: Any) -> Dict[str, Any]:
    """Digest of a simulation verdict run (deterministic fields only)."""
    return {
        "cycles": stats.cycles,
        "idle_cycles": stats.idle_cycles,
        "switch_cycles": stats.switch_cycles,
        "threads": [
            {
                "instructions": t.instructions,
                "busy_cycles": t.busy_cycles,
                "switches": t.switches,
                "iterations": t.iterations,
            }
            for t in stats.threads
        ],
    }


def ok_envelope(
    key: str,
    result: Mapping[str, Any],
    cached: bool = False,
    coalesced: bool = False,
    degraded: Sequence[str] = (),
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "status": "ok",
        "key": key,
        "cached": bool(cached),
        "coalesced": bool(coalesced),
        "degraded": sorted(degraded),
        "result": dict(result),
    }


def error_envelope(
    exc: BaseException, key: Optional[str] = None, coalesced: bool = False
) -> Dict[str, Any]:
    """A typed error envelope for any exception.

    :class:`ReproError` subclasses keep their class name and structured
    fields; anything else (which the gate treats as a bug) is tagged
    ``InternalError`` but still shipped as a well-formed envelope.
    """
    err: Dict[str, Any] = {
        "type": type(exc).__name__ if isinstance(exc, ReproError)
        else "InternalError",
        "message": str(exc),
    }
    if isinstance(exc, ServiceOverloaded):
        err["retry_after"] = exc.retry_after
    if isinstance(exc, RequestRejected):
        err["reason"] = exc.reason
    if isinstance(exc, DeadlineExceeded):
        err["phase"] = exc.phase
    envelope: Dict[str, Any] = {
        "schema": SCHEMA,
        "status": "error",
        "coalesced": bool(coalesced),
        "degraded": [],
        "error": err,
    }
    if key is not None:
        envelope["key"] = key
    return envelope


def http_status(envelope: Mapping[str, Any]) -> int:
    """The HTTP status code for a response envelope."""
    if envelope.get("status") == "ok":
        return 200
    err = envelope.get("error") or {}
    if err.get("type") == "RequestRejected" and err.get("reason") == \
            "too-large":
        return 413
    return ERROR_STATUS.get(err.get("type", ""), 500)


#: Exception classes a client raises back from ``error.type`` strings.
_CLIENT_ERRORS: Dict[str, type] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


def exception_for(envelope: Mapping[str, Any]) -> ReproError:
    """Rehydrate the typed exception a response envelope describes."""
    err = envelope.get("error") or {}
    name = err.get("type", "ReproError")
    message = err.get("message", "service error")
    cls = _CLIENT_ERRORS.get(name)
    if cls is ServiceOverloaded:
        return ServiceOverloaded(
            message, retry_after=float(err.get("retry_after", 0.05))
        )
    if cls is RequestRejected:
        return RequestRejected(message, reason=err.get("reason", "malformed"))
    if cls is DeadlineExceeded:
        return DeadlineExceeded(message, phase=err.get("phase", ""))
    if cls is None:
        return ReproError(f"{name}: {message}")
    try:
        return cls(message)
    except TypeError:  # exotic constructor signature
        return ReproError(f"{name}: {message}")

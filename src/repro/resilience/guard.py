"""The unified degradation ladder and bounded retry policy.

The ladder puts every fallback in the tree under one documented policy
object: every rung names its trigger and its degraded mode, every *use*
of a rung flows through :func:`record_degradation`, which appends a typed
:class:`Degradation` record to one process-wide, locked log and emits a
``resilience.degrade`` telemetry event -- so a test (or the chaos
harness) can assert that a masked fault really was masked *by policy*
and not by accident.

The ladder (top rung first -- each row falls back toward the slow,
simple, always-correct configuration):

======================================  =================================
rung                                    degraded mode
======================================  =================================
``service.store_to_memory``             serve the result store from the
                                        in-memory overlay only
``service.engine_to_reference``         run service simulation verdicts
                                        on the reference interpreter
``service.verify_to_skip``              skip service-side verification,
                                        flag the response envelope
======================================  =================================

Transient failures that do not merit a rung change (an injected
``pipeline.analyze`` blip) go through :func:`retry_transient`: bounded
attempts with exponential backoff, each retry tagged with a
``resilience.retry`` event.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import TransientError
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics

T = TypeVar("T")


@dataclass(frozen=True)
class Rung:
    """One documented rung of the degradation ladder."""

    name: str
    trigger: str
    action: str


#: The unified ladder.  ``record_degradation`` only accepts these names,
#: so an undocumented fallback cannot ship silently; a test keeps the
#: rung table in ``docs/ROBUSTNESS.md`` in step with this tuple.
LADDER: Tuple[Rung, ...] = (
    Rung(
        name="service.store_to_memory",
        trigger="the service's content-addressed result store keeps "
        "failing (unwritable directory, corrupt entries)",
        action="serve results from the in-memory overlay only; "
        "idempotent replay across restarts is lost until the breaker "
        "half-opens and a probe write succeeds",
    ),
    Rung(
        name="service.engine_to_reference",
        trigger="the requested simulation engine keeps failing on "
        "service verdict runs",
        action="run service simulation verdicts on the reference "
        "interpreter and flag the response envelope",
    ),
    Rung(
        name="service.verify_to_skip",
        trigger="the independent allocation verifier keeps crashing "
        "(not: rejecting) on service requests",
        action="skip verification and flag the response envelope "
        "(`verify:skipped`); allocations still ship, unverified",
    ),
)

_RUNG_NAMES = frozenset(r.name for r in LADDER)


@dataclass(frozen=True)
class Degradation:
    """One recorded use of a ladder rung."""

    rung: str
    reason: str
    seq: int
    context: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rung": self.rung,
            "reason": self.reason,
            "seq": self.seq,
            **dict(self.context),
        }


_log: List[Degradation] = []
_log_lock = threading.Lock()


def record_degradation(rung: str, reason: str, **context: Any) -> Degradation:
    """Record that ``rung`` was taken; returns the typed record.

    Numbers and appends under one lock to the process-wide log (see
    :func:`degradations`), so every record's ``seq`` is distinct, and
    emits a ``resilience.degrade`` event plus a ``site=<rung>``-labeled
    metric counter when telemetry is active.  ``rung`` must name a :data:`LADDER` row.
    """
    if rung not in _RUNG_NAMES:
        raise ValueError(
            f"unknown degradation rung {rung!r}; known: "
            f"{', '.join(sorted(_RUNG_NAMES))}"
        )
    with _log_lock:
        record = Degradation(
            rung=rung,
            reason=reason,
            seq=len(_log),
            context=tuple(sorted(context.items())),
        )
        _log.append(record)
    em = obs.get_emitter()
    if em.enabled:
        em.emit("resilience.degrade", **record.to_dict())
        reg = obs_metrics.registry()
        reg.counter("resilience.degrade").inc()
        reg.counter("resilience.degrade", site=rung).inc()
    return record


def degradations() -> Tuple[Degradation, ...]:
    """Every degradation recorded by this process, oldest first."""
    return tuple(_log)


@contextmanager
def watching() -> Iterator[List[Degradation]]:
    """Yield a list that accumulates the degradations of the block."""
    mark = len(_log)
    new: List[Degradation] = []
    try:
        yield new
    finally:
        new.extend(_log[mark:])


def backoff_delays(
    backoff: float,
    attempts: int,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
    label: str = "work",
) -> List[float]:
    """The retry delay schedule: exponential backoff, optionally jittered.

    Delay ``k`` (0-based) is ``backoff * 2**k``, scaled by a factor
    drawn uniformly from ``[1 - jitter, 1]`` when ``jitter > 0``.  The
    scale-*down* direction means a jittered schedule never waits longer
    than the deterministic one, only decorrelates callers that would
    otherwise retry in lockstep against a shared resource (the service's
    admission queue).

    Jitter is deterministic and seedable: pass an explicit
    ``random.Random`` to control the stream, or let the default derive a
    stable per-``label`` seed (``crc32(label)``) -- two processes
    retrying different labels decorrelate, while one label replays the
    same schedule run over run.  ``jitter=0.0`` (the default everywhere)
    draws nothing and returns the exact historical schedule.
    """
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    delays = [backoff * (2 ** k) for k in range(max(attempts - 1, 0))]
    if jitter > 0.0:
        if rng is None:
            rng = random.Random(zlib.crc32(label.encode()))
        delays = [d * (1.0 - jitter * rng.random()) for d in delays]
    return delays


def retry_transient(
    fn: Callable[[], T],
    attempts: int = 3,
    backoff: float = 0.0,
    label: str = "work",
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``fn`` with bounded retry for transient failures.

    Retries only :class:`TransientError`; anything else propagates
    immediately.  Waits ``backoff * 2**k`` seconds before retry ``k``
    (the default ``backoff=0.0`` keeps tests instant).  The last
    attempt's exception propagates unchanged, so an unmaskable fault
    still surfaces typed.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except TransientError as exc:
            if attempt == attempts:
                raise
            em = obs.get_emitter()
            if em.enabled:
                em.emit(
                    "resilience.retry",
                    label=label,
                    attempt=attempt,
                    attempts=attempts,
                    error=f"{type(exc).__name__}: {exc}",
                )
                obs_metrics.registry().counter("resilience.retry").inc()
            if backoff > 0:
                sleep(backoff * 2 ** (attempt - 1))
    raise AssertionError("unreachable")  # pragma: no cover

"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AsmSyntaxError(ReproError):
    """A textual assembly program could not be parsed.

    Carries the offending line number (1-based) and the raw line text so
    that error messages can point at the exact location.
    """

    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        self.line_no = line_no
        self.line = line
        if line_no:
            message = f"line {line_no}: {message}: {line.strip()!r}"
        super().__init__(message)


class ValidationError(ReproError):
    """A program violates a structural rule (bad label, operand kind...)."""


class AllocationError(ReproError):
    """Register allocation failed (infeasible budget, internal conflict).

    When the Figure-8 loop exhausts every reduction direction,
    ``requirement`` carries the residual register requirement -- the
    smallest budget that would have satisfied the loop -- as a typed
    attribute, so feasibility probes never parse the message text.
    Other allocation failures leave it ``None``.
    """

    def __init__(self, message: str, requirement: Optional[int] = None):
        self.requirement = requirement
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays ``args`` only, which would
        # drop ``requirement`` from a pickled or copied error.
        return (
            type(self),
            (self.args[0] if self.args else "", self.requirement),
        )


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    Raised by infrastructure layers (and by the fault injector's
    ``transient`` mode) for conditions with no persistent cause; the
    degradation ladder (:mod:`repro.resilience.guard`) retries these a
    bounded number of times before letting them surface.
    """


class InjectedFault(ReproError):
    """A deliberately injected fault surfaced without being masked.

    Only ever raised while a :mod:`repro.resilience.faults` plan is
    armed; seeing it in production code paths means fault injection was
    left enabled, never that the system itself failed.
    """


class DeadlineExceeded(ReproError):
    """A :class:`repro.resilience.Deadline` budget ran out mid-pipeline.

    Carries the phase that tripped the check so callers know how far
    the work got before the budget expired.
    """

    def __init__(self, message: str, phase: str = ""):
        self.phase = phase
        super().__init__(message)


class ServiceError(ReproError):
    """Base class for failures of the allocation service frontend.

    Raised (and mapped into typed response envelopes) by
    :mod:`repro.service`; subclasses carry the machine-readable fields
    a client needs to react without parsing message text.
    """


class ServiceOverloaded(ServiceError):
    """The service shed a request at the admission boundary.

    Raised when the bounded admission queue is full, or when the server
    is draining and no longer admits work.  ``retry_after`` is the
    suggested client backoff in seconds -- the HTTP layer surfaces it
    as a ``Retry-After`` header on the 429 response.
    """

    def __init__(self, message: str, retry_after: float = 0.05):
        self.retry_after = retry_after
        super().__init__(message)

    def __reduce__(self):
        return (
            type(self),
            (self.args[0] if self.args else "", self.retry_after),
        )


class RequestRejected(ServiceError):
    """A service request was refused before any analysis work.

    Structural problems with the request itself: oversized bodies,
    non-JSON payloads, unknown fields, missing programs, out-of-range
    budgets.  ``reason`` is a short machine-readable slug
    (``too-large``, ``malformed``, ``bad-field``) so tests and clients
    can branch without string-matching the message.
    """

    def __init__(self, message: str, reason: str = "malformed"):
        self.reason = reason
        super().__init__(message)

    def __reduce__(self):
        return (
            type(self),
            (self.args[0] if self.args else "", self.reason),
        )


class VerificationError(ReproError):
    """The independent allocation verifier rejected an outcome.

    Raised by :func:`repro.core.verify.verify_outcome` in strict mode;
    the message lists every failed check.
    """


class SimulationError(ReproError):
    """The machine simulator hit an illegal state (bad address, opcode...)."""


class WatchdogError(SimulationError):
    """The simulator's cycle watchdog fired before every thread halted.

    Raised by both engines when a run exceeds ``max_cycles`` -- a
    non-terminating rewritten program, a thread stuck waiting on a wake
    that never comes, or simply a budget too small for the workload.
    Subclasses :class:`SimulationError` so pre-watchdog callers keep
    working.
    """


class EngineError(SimulationError):
    """An execution engine cannot honour the requested feature set.

    Raised when the fast engine is explicitly selected together with a
    feature only the reference interpreter implements (instruction
    tracing, timeline recording, the paranoid safety checker), and for
    unknown engine names.  Auto-selection never raises it -- it
    silently picks the reference engine instead.
    """


class SafetyViolation(SimulationError):
    """A thread touched a register it does not own at a context switch.

    Raised only in the simulator's paranoid mode; it is the dynamic
    counterpart of the paper's private/shared safety requirement.
    """

"""Structured telemetry events with nested, wall-clock-timed spans.

Two primitives:

* an **event** is a named point-in-time record with free-form fields
  (``emit("inter.step", kind="pr", thread=2, delta=0)``);
* a **span** is a named duration covering everything emitted inside its
  ``with`` block; spans nest, and every record carries the path of its
  enclosing span (``"allocate/inter"``), which is what turns a flat event
  log back into a phase tree.

The current emitter is a context variable whose default is :data:`NULL`,
a no-op whose ``emit`` returns immediately and whose ``span`` hands back
one shared do-nothing context manager -- instrumented hot paths stay
zero-cost until :func:`capture` binds a real :class:`Emitter` for the
current thread and the service jobs it submits::

    with capture() as em:
        allocate_programs(programs, nreg=32)
    em.phase_timings()  # {"allocate": 0.01, "allocate/inter": 0.007, ...}

Timestamps are seconds relative to the emitter's creation (monotonic
clock), so event logs are diffable between runs and never depend on wall
time; converting to absolute time is the consumer's business.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, Iterator, List, Optional,
)

from repro.scope import bind


@dataclass
class Event:
    """One telemetry record (a point event or a completed span)."""

    name: str
    kind: str  #: ``"event"`` or ``"span"``
    ts: float  #: seconds since the emitter's epoch (span: start time)
    seq: int  #: emitter-wide ordering (spans are sequenced at *exit*)
    span: Optional[str] = None  #: enclosing span path, None at top level
    dur: Optional[float] = None  #: span wall time in seconds
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def path(self) -> str:
        """Full span path of the record itself."""
        return f"{self.span}/{self.name}" if self.span else self.name

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (compact: optional keys omitted when empty)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "ts": round(self.ts, 9),
            "seq": self.seq,
        }
        if self.span is not None:
            out["span"] = self.span
        if self.dur is not None:
            out["dur"] = round(self.dur, 9)
        if self.fields:
            out["fields"] = self.fields
        return out


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullEmitter:
    """The disabled emitter: records nothing, costs (almost) nothing."""

    enabled = False
    events: tuple = ()

    def emit(self, name: str, **fields: Any) -> None:
        return None

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def span_path(self) -> Optional[str]:
        return None

    def phase_timings(self) -> Dict[str, float]:
        return {}

    def counts(self) -> Dict[str, int]:
        return {}

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []


class Emitter:
    """An enabled emitter: an in-memory, append-only event log."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._stack: List[str] = []
        self._seq = 0
        self.events: List[Event] = []

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._epoch

    def span_path(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    def emit(self, name: str, **fields: Any) -> Event:
        """Record a point event under the current span."""
        ev = Event(
            name=name,
            kind="event",
            ts=self._now(),
            seq=self._seq,
            span=self.span_path(),
            fields=fields,
        )
        self._seq += 1
        self.events.append(ev)
        return ev

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """Time a phase; everything emitted inside carries its path."""
        parent = self.span_path()
        path = f"{parent}/{name}" if parent else name
        self._stack.append(path)
        start = self._now()
        try:
            yield
        finally:
            self._stack.pop()
            ev = Event(
                name=name,
                kind="span",
                ts=start,
                seq=self._seq,
                span=parent,
                dur=self._now() - start,
                fields=fields,
            )
            self._seq += 1
            self.events.append(ev)

    # ------------------------------------------------------------------
    # Read-side helpers.
    # ------------------------------------------------------------------
    def events_named(self, name: str) -> List[Event]:
        return [e for e in self.events if e.name == name]

    def phase_timings(self) -> Dict[str, float]:
        """Total wall seconds per span path (repeated spans accumulate)."""
        out: Dict[str, float] = {}
        for e in self.events:
            if e.kind == "span" and e.dur is not None:
                out[e.path] = out.get(e.path, 0.0) + e.dur
        return out

    def counts(self) -> Dict[str, int]:
        """Record count per event name (spans included)."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.name] = out.get(e.name, 0) + 1
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.events]


#: The disabled singleton every call site sees by default.
NULL = NullEmitter()

_current: ContextVar[Any] = ContextVar("repro.obs.emitter", default=NULL)


def get_emitter() -> Any:
    """The current context's emitter (``NULL`` unless :func:`capture` is
    active)."""
    return _current.get()


def enabled() -> bool:
    return _current.get().enabled


def emit(name: str, **fields: Any) -> None:
    """Emit through the current emitter (no-op when disabled)."""
    em = _current.get()
    if em.enabled:
        em.emit(name, **fields)


def span(name: str, **fields: Any):
    """Open a span on the current emitter (no-op when disabled)."""
    return _current.get().span(name, **fields)


def capture() -> ContextManager[Emitter]:
    """Bind a fresh emitter for the duration of the block.

    The binding covers this thread and the service jobs it submits, and
    the previous emitter is restored on exit, even on error, so captures
    nest and never leak into unrelated code (:mod:`repro.scope`).
    """
    return bind(_current, Emitter())

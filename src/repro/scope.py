"""One way to scope a runtime setting: bind a context variable for a block.

The telemetry emitter, the metrics registry, the armed fault plan and the
analysis cache are context variables, and :func:`bind` is the only code
that sets one.  A binding holds for the thread that made it and for the
service jobs that thread submits, since a worker runs each job in a copy
of its submitter's context.  A thread that binds nothing, as every new
thread starts, sees the defaults: one object per process.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, TypeVar

T = TypeVar("T")


@contextmanager
def bind(var: ContextVar[T], value: T) -> Iterator[T]:
    """Set ``var`` to ``value`` for the block, restoring it on exit."""
    token = var.set(value)
    try:
        yield value
    finally:
        var.reset(token)

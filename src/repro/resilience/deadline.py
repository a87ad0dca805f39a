"""Wall-clock budgets for pipeline work.

A :class:`Deadline` is a point in (monotonic) time after which work
should stop.  It is *cooperative*: the allocator pipeline calls
:meth:`Deadline.check` at phase boundaries (validate / analyze / bounds
/ inter / assign / rewrite), so an expired budget surfaces as a typed
:class:`~repro.errors.DeadlineExceeded` at the next boundary instead of
a silent overrun.  The simulators use cycle watchdogs
(:class:`~repro.errors.WatchdogError`) rather than deadlines -- cycles
are their natural budget and stay deterministic across hosts.

Deadlines compose: pass one object through nested calls and every
layer charges against the same budget.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import DeadlineExceeded
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics


class Deadline:
    """A cooperative wall-clock budget.

    Build one with :meth:`after` (seconds from now) and thread it
    through ``allocate_programs(..., deadline=...)``; each phase
    boundary calls :meth:`check`, which raises
    :class:`DeadlineExceeded` once the budget is spent and emits a
    ``resilience.deadline`` telemetry event naming the phase that
    tripped.
    """

    __slots__ = ("budget", "expires_at", "_clock")

    def __init__(
        self,
        budget: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget}")
        self.budget = float(budget)
        self._clock = clock
        self.expires_at = clock() + budget

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, phase: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        remaining = self.remaining()
        if remaining > 0:
            return
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "resilience.deadline",
                phase=phase,
                budget=self.budget,
                overrun=-remaining,
            )
            obs_metrics.registry().counter("resilience.deadline").inc()
        where = f" at phase {phase!r}" if phase else ""
        raise DeadlineExceeded(
            f"deadline of {self.budget:.3f}s exceeded{where} "
            f"(overrun {-remaining:.3f}s)",
            phase=phase,
        )


def check(deadline: Optional[Deadline], phase: str = "") -> None:
    """``deadline.check(phase)`` tolerating ``deadline=None`` call sites."""
    if deadline is not None:
        deadline.check(phase)

"""Per-subsystem circuit breakers layered on the degradation ladder.

A :class:`CircuitBreaker` guards one fallible subsystem of the service
(the result store, the verdict engine, the verifier) with the classic
three-state machine:

``closed``
    healthy; calls flow.  ``threshold`` *consecutive* failures trip to
    ``open``.
``open``
    failing; calls are skipped outright (the degraded mode serves
    instead: memory-only store, reference engine, verification
    skipped-with-flag).  After ``cooldown`` seconds the breaker
    half-opens.
``half-open``
    probing; every caller is allowed through until one reports.  The
    first success closes the breaker; the first failure re-opens it
    and restarts the cooldown.  A single-probe rule would need every
    admitted caller to report, and a store miss reports nothing, so the
    breaker could stay half-open for good.

Where the degradation ladder (:mod:`repro.resilience.guard`) records
*that* a fallback was taken, the breaker adds *when to stop trying and
when to try again* -- the long-running-server dimension the one-shot
CLI never needed.  Tripping records the breaker's ladder rung exactly
once per trip, so the chaos gate can assert the degradation was by
policy; every transition updates the ``service.breaker{site=,state=}``
gauge family (1 on the active state, 0 on the others) and emits a
``service.breaker`` event under an active capture.

The clock is injectable (monotonic seconds) so tests and chaos
scenarios drive cooldown expiry deterministically.

Handlers and workers report on one breaker concurrently, so each
breaker holds one reentrant lock across ``state``, ``success`` and
``failure`` (``failure`` reads ``state`` under it): a streak that
crosses the threshold on two threads at once trips, counts and records
its rung once.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import guard

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

STATES = (CLOSED, OPEN, HALF_OPEN)


class CircuitBreaker:
    """One subsystem's breaker; see the module docstring."""

    def __init__(
        self,
        site: str,
        rung: Optional[str] = None,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.site = site
        self.rung = rung
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self._set_gauges()

    # ------------------------------------------------------------------
    def _set_gauges(self) -> None:
        reg = obs_metrics.registry()
        for state in STATES:
            reg.gauge(
                "service.breaker", site=self.site, state=state
            ).set(1.0 if state == self._state else 0.0)

    def _transition(self, state: str, reason: str = "") -> None:
        if state == self._state:
            return
        previous, self._state = self._state, state
        self._set_gauges()
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "service.breaker",
                site=self.site,
                state=state,
                previous=previous,
                reason=reason,
            )

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, cooldown expiry applied lazily."""
        with self._lock:
            if self._state == OPEN and (
                self._clock() - self._opened_at >= self.cooldown
            ):
                self._transition(HALF_OPEN, reason="cooldown elapsed")
            return self._state

    def allow(self) -> bool:
        """May the guarded call run right now?

        ``closed`` and ``half-open`` (probing) allow; ``open`` skips.
        """
        return self.state != OPEN

    def success(self) -> None:
        """The guarded call succeeded; half-open probes close the breaker."""
        with self._lock:
            state = self.state
            self._failures = 0
            if state == HALF_OPEN:
                self._transition(CLOSED, reason="probe succeeded")

    def failure(self, reason: str = "") -> None:
        """The guarded call failed; trip when the streak hits threshold."""
        with self._lock:
            state = self.state
            if state == HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(OPEN, reason=f"probe failed: {reason}")
                return
            self._failures += 1
            if state == CLOSED and self._failures >= self.threshold:
                self.trips += 1
                self._opened_at = self._clock()
                self._transition(
                    OPEN,
                    reason=f"{self._failures} consecutive failures "
                    f"(last: {reason})",
                )
                if self.rung is not None:
                    guard.record_degradation(
                        self.rung,
                        reason=f"breaker {self.site} tripped: {reason}",
                        site=self.site,
                        failures=self._failures,
                    )


class BreakerBoard:
    """The service's breakers by site name, with one-line call guards."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.breakers: Dict[str, CircuitBreaker] = {
            "store": CircuitBreaker(
                "store", rung="service.store_to_memory",
                threshold=threshold, cooldown=cooldown, clock=clock,
            ),
            "engine": CircuitBreaker(
                "engine", rung="service.engine_to_reference",
                threshold=threshold, cooldown=cooldown, clock=clock,
            ),
            "verify": CircuitBreaker(
                "verify", rung="service.verify_to_skip",
                threshold=threshold, cooldown=cooldown, clock=clock,
            ),
        }

    def __getitem__(self, site: str) -> CircuitBreaker:
        return self.breakers[site]

    def states(self) -> Dict[str, str]:
        return {site: b.state for site, b in self.breakers.items()}

    def degraded_flags(self) -> list:
        """The envelope ``degraded`` entries for currently-open breakers."""
        return [
            f"{site}:open"
            for site, b in sorted(self.breakers.items())
            if b.state == OPEN
        ]

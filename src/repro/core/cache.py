"""Content-addressed memoization of per-thread analysis artifacts.

:func:`~repro.core.analysis.analyze_thread` and
:func:`~repro.core.bounds.estimate_bounds` are pure functions of the
program text: liveness, NSRs, the interference graphs, and the four
register bounds do not depend on the register budget, the policy, or the
other threads on the PU.  Every experiment harness nevertheless used to
recompute them per ``(kernel, nthd, nreg)`` sweep point -- by far the
largest share of allocation wall time (see ``docs/PERFORMANCE.md``).

This module memoizes both behind :meth:`Program.fingerprint` in an
in-process LRU (:class:`AnalysisCache`, whose LRUs are
:class:`repro.store.LRU`) shared by the whole pipeline through
:func:`get_cache`, the current context's cache (:mod:`repro.scope`).
Telemetry: ``cache.hit`` / ``cache.miss`` counters and events through
:mod:`repro.obs` whenever a capture is active, plus always-on plain
counters in :class:`CacheStats` for benchmarks and tests.  A miss runs
the dense analysis behind the ``analysis.dense_to_reference``
degradation rung (``docs/ROBUSTNESS.md``), which ``repro chaos``
exercises through the ``analysis.dense`` fault site.

The service's worker threads share the default cache.  Its own lock
guards only :class:`CacheStats` and is never taken while an LRU's lock
is held; no lock is held across an analysis, so two threads missing on
one program may both analyse it; the second insert replaces the first
with an equal entry.

Cached values are shared objects: callers must treat a returned
:class:`ThreadAnalysis` (and the ``coloring`` inside its
:class:`Bounds`) as immutable, which the allocator pipeline already
does -- contexts reference an analysis but never write to it.  Because
keys are content hashes there is no invalidation protocol: mutating a
program changes its fingerprint, and the stale entry simply ages out of
the LRU.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Any, ContextManager, Dict, Optional, Sequence, Tuple

from repro import store
from repro.core.analysis import (
    ThreadAnalysis,
    analyze_thread,
    analyze_thread_reference,
)
from repro.core.bounds import Bounds, estimate_bounds
from repro.errors import InjectedFault
from repro.ir.program import Program
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import faults, guard
from repro.scope import bind

#: Default in-process LRU capacity (entries, i.e. distinct programs).
DEFAULT_CAPACITY = 128

#: Default capacity of the descent-trajectory LRU (distinct thread mixes).
DEFAULT_DESCENT_CAPACITY = 16


@dataclass
class CacheStats:
    """Always-on plain counters (telemetry-independent)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    descent_hits: int = 0
    descent_misses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class _Entry:
    """One cached program: the analysis, with bounds filled in lazily."""

    __slots__ = ("analysis", "bounds")

    def __init__(self, analysis: ThreadAnalysis, bounds: Optional[Bounds]):
        self.analysis = analysis
        self.bounds = bounds


def _analyze_resilient(program: Program) -> ThreadAnalysis:
    """:func:`analyze_thread` behind the ``analysis.dense_to_reference``
    degradation rung.

    When the dense bitset kernels raise (or the ``analysis.dense`` fault
    site fires), the program is re-analyzed once with
    :func:`analyze_thread_reference` -- bit-identical by construction --
    and the rung is recorded.
    """
    try:
        if faults.fire("analysis.dense", program=program.name):
            raise InjectedFault(
                f"injected dense-analysis fault for {program.name!r}"
            )
        return analyze_thread(program)
    except Exception as exc:
        guard.record_degradation(
            "analysis.dense_to_reference",
            reason=f"{type(exc).__name__}: {exc}",
            program=program.name,
        )
        return analyze_thread_reference(program)


class AnalysisCache:
    """Fingerprint-keyed LRU over ``(ThreadAnalysis, Bounds)`` pairs."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        descent_capacity: int = DEFAULT_DESCENT_CAPACITY,
    ):
        self._entries = store.LRU(capacity)
        self._descents = store.LRU(descent_capacity)
        self.stats = CacheStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def analyze(self, program: Program) -> ThreadAnalysis:
        """Memoized :func:`analyze_thread` (treat the result as immutable)."""
        return self._entry(program).analysis

    def bounds(self, program: Program) -> Bounds:
        """Memoized :func:`estimate_bounds` of the program's analysis."""
        entry = self._entry(program)
        if entry.bounds is None:
            entry.bounds = estimate_bounds(entry.analysis)
        return entry.bounds

    def analyze_with_bounds(
        self, program: Program
    ) -> Tuple[ThreadAnalysis, Bounds]:
        """Both artifacts in one lookup."""
        return self.analyze(program), self.bounds(program)

    def descent(self, programs: Sequence[Program], policy: str = "greedy"):
        """Memoized :class:`~repro.core.inter.SharedDescent` for this
        exact (ordered) thread mix.

        The descent trajectory is budget-independent, so every budget
        query against the same programs extends ONE shared descent; on a
        warm trajectory a repeated query is a dictionary read-off.  The
        returned object is shared and resumable -- callers only ever call
        its query methods (``result`` / ``zero_cost_result`` /
        ``reachable``), which is all monotonic extension, never
        mutation-in-place of served results.
        """
        from repro.core.inter import SharedDescent

        fps = tuple(p.fingerprint() for p in programs)
        key = (fps, policy)
        descent = self._descents.get(key)
        if descent is not None:
            with self._lock:
                self.stats.descent_hits += 1
            self._note("cache.descent_hit", fps[0] if fps else "")
            return descent
        with self._lock:
            self.stats.descent_misses += 1
        self._note("cache.descent_miss", fps[0] if fps else "")
        analyses = [self.analyze(p) for p in programs]
        bounds = [self.bounds(p) for p in programs]
        descent = SharedDescent(analyses, policy=policy, bounds=bounds)
        self._put(self._descents, key, descent)
        return descent

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._descents.clear()

    def clear_descents(self) -> None:
        """Drop only the descent trajectories (benchmarks use this to
        time a cold descent against warm analyses)."""
        self._descents.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, program: Program) -> bool:
        return program.fingerprint() in self._entries

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _note(self, event: str, fp: str, kernel: Optional[str] = None) -> None:
        em = obs.get_emitter()
        if em.enabled:
            if kernel is None:
                em.emit(event, fingerprint=fp[:12])
            else:
                em.emit(event, fingerprint=fp[:12], kernel=kernel)
            reg = obs_metrics.registry()
            reg.counter(event).inc()
            if kernel is not None:
                reg.counter(event, kernel=kernel).inc()

    def _entry(self, program: Program) -> _Entry:
        fp = program.fingerprint()
        entry = self._entries.get(fp)
        if entry is not None:
            with self._lock:
                self.stats.hits += 1
            self._note("cache.hit", fp, program.name)
            return entry
        with self._lock:
            self.stats.misses += 1
        self._note("cache.miss", fp, program.name)
        entry = _Entry(_analyze_resilient(program), None)
        self._put(self._entries, fp, entry)
        return entry

    def _put(self, lru: store.LRU, key: Any, value: Any) -> None:
        evicted = lru.put(key, value)
        if evicted:
            with self._lock:
                self.stats.evictions += evicted


_cache = ContextVar("repro.core.cache", default=AnalysisCache())


def get_cache() -> AnalysisCache:
    """The current context's analysis cache."""
    return _cache.get()


def scoped(
    cache: Optional[AnalysisCache] = None,
) -> ContextManager[AnalysisCache]:
    """Bind a fresh (or given) cache for the block, restoring on exit."""
    return bind(_cache, cache if cache is not None else AnalysisCache())

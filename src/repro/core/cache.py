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
counters in :class:`CacheStats` for benchmarks and tests.  Each
program is looked up once per call (:meth:`AnalysisCache.entry`), so
one event counts one program.  A miss runs
:func:`~repro.core.analysis.analyze_thread`; if it raises, nothing is
inserted and the exception reaches the caller.

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
from repro.core.analysis import ThreadAnalysis, analyze_thread
from repro.core.bounds import Bounds, estimate_bounds
from repro.ir.program import Program
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
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


class Entry:
    """One cached program: its analysis, and its bounds on first use."""

    __slots__ = ("analysis", "_bounds")

    def __init__(self, analysis: ThreadAnalysis):
        self.analysis = analysis
        self._bounds: Optional[Bounds] = None

    def bounds(self) -> Bounds:
        """Memoized :func:`estimate_bounds` of the analysis."""
        if self._bounds is None:
            self._bounds = estimate_bounds(self.analysis)
        return self._bounds


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
    def entry(self, program: Program) -> Entry:
        """The program's cache entry: one lookup, one fingerprint, one
        ``cache.hit`` or ``cache.miss``.  A miss analyses the program
        and inserts the entry only once the analysis has returned."""
        return self._lookup(program, program.fingerprint())

    def analyze(self, program: Program) -> ThreadAnalysis:
        """Memoized :func:`analyze_thread` (treat the result as immutable)."""
        return self.entry(program).analysis

    def bounds(self, program: Program) -> Bounds:
        """Memoized :func:`estimate_bounds` of the program's analysis."""
        return self.entry(program).bounds()

    def analyze_with_bounds(
        self, program: Program
    ) -> Tuple[ThreadAnalysis, Bounds]:
        """Both artifacts in one lookup."""
        entry = self.entry(program)
        return entry.analysis, entry.bounds()

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
        entries = [self._lookup(p, fp) for p, fp in zip(programs, fps)]
        descent = SharedDescent(
            [e.analysis for e in entries],
            policy=policy,
            bounds=[e.bounds() for e in entries],
        )
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

    def _lookup(self, program: Program, fp: str) -> Entry:
        entry = self._entries.get(fp)
        if entry is not None:
            with self._lock:
                self.stats.hits += 1
            self._note("cache.hit", fp, program.name)
            return entry
        with self._lock:
            self.stats.misses += 1
        self._note("cache.miss", fp, program.name)
        entry = Entry(analyze_thread(program))
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

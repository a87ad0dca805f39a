"""Content-addressed memoization of per-thread analysis artifacts.

:func:`~repro.core.analysis.analyze_thread` and
:func:`~repro.core.bounds.estimate_bounds` are pure functions of the
program text: liveness, NSRs, the interference graphs, and the four
register bounds do not depend on the register budget, the policy, or the
other threads on the PU.  Every experiment harness nevertheless used to
recompute them per ``(kernel, nthd, nreg)`` sweep point -- by far the
largest share of allocation wall time (see ``docs/PERFORMANCE.md``).

This module memoizes both behind :meth:`Program.fingerprint`:

* an in-process LRU (:class:`AnalysisCache`) shared by the whole
  pipeline through :func:`get_cache`;
* an optional on-disk layer (``REPRO_CACHE_DIR`` or ``--cache-dir``)
  that persists pickled ``(analysis, bounds)`` pairs across processes,
  keyed by the same fingerprint;
* telemetry: ``cache.hit`` / ``cache.miss`` / ``cache.disk_error``
  counters and events through :mod:`repro.obs` whenever a capture is
  active, plus always-on plain counters in :class:`CacheStats` for
  benchmarks and tests.

Failure policy (``docs/ROBUSTNESS.md``): a corrupt or unreadable disk
entry is quarantined to ``*.bad`` (so later runs miss cheaply instead
of re-paying the failed decode) and treated as a miss; repeated disk
failures take the ``cache.disk_to_memory`` degradation rung, disabling
the disk layer for this cache while the in-memory LRU keeps working.
The ``cache.disk`` fault-injection site and the dense-analysis
fallback rung are exercised by ``repro chaos``.

Cached values are shared objects: callers must treat a returned
:class:`ThreadAnalysis` (and the ``coloring`` inside its
:class:`Bounds`) as immutable, which the allocator pipeline already
does -- contexts reference an analysis but never write to it.  Because
keys are content hashes there is no invalidation protocol: mutating a
program changes its fingerprint, and the stale entry simply ages out of
the LRU.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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

#: Environment variable naming the on-disk cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default in-process LRU capacity (entries, i.e. distinct programs).
DEFAULT_CAPACITY = 128

#: Default capacity of the descent-trajectory LRU (distinct thread mixes).
DEFAULT_DESCENT_CAPACITY = 16

#: Consecutive disk-layer failures tolerated before the cache takes the
#: ``cache.disk_to_memory`` degradation rung and disables its disk dir.
DEFAULT_MAX_DISK_ERRORS = 4

#: Quarantined (``*.bad``) entries retained per cache directory.  A
#: flaky disk on a long-running server would otherwise grow the
#: quarantine without bound; beyond the cap the oldest entries are
#: unlinked (``cache.quarantine_trimmed`` event).
DEFAULT_MAX_QUARANTINE = 32


@dataclass
class CacheStats:
    """Always-on plain counters (telemetry-independent)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_errors: int = 0
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


def _analyze_worker(program: Program) -> Tuple[ThreadAnalysis, Bounds]:
    """Top-level (picklable) worker: full analysis bundle for one program."""
    analysis = _analyze_resilient(program)
    return analysis, estimate_bounds(analysis)


class AnalysisCache:
    """Fingerprint-keyed LRU over ``(ThreadAnalysis, Bounds)`` pairs."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        max_disk_errors: int = DEFAULT_MAX_DISK_ERRORS,
        descent_capacity: int = DEFAULT_DESCENT_CAPACITY,
        max_quarantine: int = DEFAULT_MAX_QUARANTINE,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if descent_capacity < 1:
            raise ValueError(
                f"descent capacity must be >= 1, got {descent_capacity}"
            )
        self.capacity = capacity
        self.descent_capacity = descent_capacity
        if cache_dir is None:
            cache_dir = os.environ.get(ENV_CACHE_DIR) or None
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.max_disk_errors = max_disk_errors
        self.max_quarantine = max_quarantine
        self.stats = CacheStats()
        self._disk_error_streak = 0
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        # Descent trajectories are memory-only: a SharedDescent holds
        # live AllocContext graphs whose pickled form would dwarf the
        # analysis entries, and rebuilding one is itself served by the
        # (possibly disk-backed) analysis entries above.
        self._descents: "OrderedDict[Tuple[Tuple[str, ...], str], Any]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def analyze(self, program: Program) -> ThreadAnalysis:
        """Memoized :func:`analyze_thread` (treat the result as immutable)."""
        return self._entry(program.fingerprint(), program).analysis

    def bounds(self, program: Program) -> Bounds:
        """Memoized :func:`estimate_bounds` of the program's analysis."""
        fp = program.fingerprint()
        entry = self._entry(fp, program)
        if entry.bounds is None:
            entry.bounds = estimate_bounds(entry.analysis)
            self._disk_store(fp, entry)
        return entry.bounds

    def analyze_with_bounds(
        self, program: Program
    ) -> Tuple[ThreadAnalysis, Bounds]:
        """Both artifacts in one lookup."""
        return self.analyze(program), self.bounds(program)

    def warm_many(
        self, programs: Sequence[Program], jobs: int = 1
    ) -> List[Tuple[ThreadAnalysis, Bounds]]:
        """Fill the cache for ``programs`` and return their pairs in order.

        With ``jobs > 1`` the cache misses are analysed in a parallel
        sweep (:func:`repro.harness.sweep.sweep_map`) and the results
        folded back into this (parent-process) cache, so a subsequent
        serial pass is fully warm.  Duplicate programs are analysed once.
        """
        fps = [p.fingerprint() for p in programs]
        missing: "OrderedDict[str, Program]" = OrderedDict()
        for fp, program in zip(fps, programs):
            if fp not in self._entries and fp not in missing:
                if self._disk_load(fp) is None:
                    missing[fp] = program
        if missing and jobs > 1:
            from repro.harness.sweep import sweep_map

            pairs = sweep_map(
                _analyze_worker, list(missing.values()), jobs=jobs,
                label="analyze",
            )
            for (fp, program), (analysis, bounds) in zip(
                missing.items(), pairs
            ):
                self._count_miss(fp, program.name)
                entry = _Entry(analysis, bounds)
                self._insert(fp, entry)
                self._disk_store(fp, entry)
                # _entry() below must not re-count these as fresh misses.
        return [
            (self._entry(fp, p).analysis, self.bounds(p))
            for fp, p in zip(fps, programs)
        ]

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
            self._descents.move_to_end(key)
            self.stats.descent_hits += 1
            self._note("cache.descent_hit", fps[0] if fps else "")
            return descent
        self.stats.descent_misses += 1
        self._note("cache.descent_miss", fps[0] if fps else "")
        analyses = [self.analyze(p) for p in programs]
        bounds = [self.bounds(p) for p in programs]
        descent = SharedDescent(analyses, policy=policy, bounds=bounds)
        self._descents[key] = descent
        while len(self._descents) > self.descent_capacity:
            self._descents.popitem(last=False)
            self.stats.evictions += 1
        return descent

    def clear(self) -> None:
        """Drop every in-memory entry (the disk layer is left alone)."""
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

    def _count_miss(self, fp: str, kernel: Optional[str] = None) -> None:
        self.stats.misses += 1
        self._note("cache.miss", fp, kernel)

    def _entry(self, fp: str, program: Program) -> _Entry:
        entry = self._entries.get(fp)
        if entry is not None:
            self._entries.move_to_end(fp)
            self.stats.hits += 1
            self._note("cache.hit", fp, program.name)
            return entry
        entry = self._disk_load(fp)
        if entry is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._note("cache.hit", fp, program.name)
            self._insert(fp, entry)
            return entry
        self._count_miss(fp, program.name)
        entry = _Entry(_analyze_resilient(program), None)
        self._insert(fp, entry)
        self._disk_store(fp, entry)
        return entry

    def _insert(self, fp: str, entry: _Entry) -> None:
        self._entries[fp] = entry
        self._entries.move_to_end(fp)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # On-disk layer.
    # ------------------------------------------------------------------
    def _disk_path(self, fp: str) -> Optional[pathlib.Path]:
        return self.cache_dir / f"{fp}.pkl" if self.cache_dir else None

    def _disk_fail(self, fp: str, exc: BaseException, action: str) -> None:
        """Count a disk-layer failure; degrade to memory-only if they
        keep coming (the ``cache.disk_to_memory`` rung)."""
        self.stats.disk_errors += 1
        self._disk_error_streak += 1
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "cache.disk_error",
                fingerprint=fp[:12],
                error=f"{type(exc).__name__}: {exc}",
                action=action,
            )
            obs_metrics.registry().counter("cache.disk_error").inc()
        if (
            self.cache_dir is not None
            and self._disk_error_streak >= self.max_disk_errors
        ):
            guard.record_degradation(
                "cache.disk_to_memory",
                reason=f"{self._disk_error_streak} consecutive disk-cache "
                f"failures (last: {type(exc).__name__}: {exc})",
                cache_dir=str(self.cache_dir),
            )
            self.cache_dir = None

    def _quarantine(self, path: pathlib.Path) -> str:
        """Move a corrupt entry aside (``*.bad``) so later runs miss
        cheaply instead of re-paying the failed unpickle; returns the
        action taken for the ``cache.disk_error`` event.  The retained
        quarantine is capped (oldest-first trim, see
        :func:`trim_quarantine`) so a flaky disk cannot grow it without
        bound on a long-running server."""
        try:
            os.replace(path, path.with_suffix(".bad"))
        except OSError:
            try:
                path.unlink()
                return "deleted"
            except OSError:
                return "left-in-place"
        trim_quarantine(path.parent, self.max_quarantine)
        return "quarantined"

    def _disk_load(self, fp: str) -> Optional[_Entry]:
        path = self._disk_path(fp)
        if path is None:
            return None
        spec = faults.fire("cache.disk", fingerprint=fp[:12])
        if spec is not None:
            _damage_entry(path, spec.mode)
        try:
            with path.open("rb") as fh:
                analysis, bounds = pickle.load(fh)
            if not isinstance(analysis, ThreadAnalysis):
                raise TypeError(f"unexpected payload in {path}")
        except FileNotFoundError:
            return None
        except Exception as exc:
            # A corrupt / foreign / version-skewed file is a miss -- but
            # never a silent one: the entry is quarantined so the next
            # run does not re-pay the failed decode, and the failure is
            # tagged for telemetry and the degradation ladder.
            self._disk_fail(fp, exc, self._quarantine(path))
            return None
        self._disk_error_streak = 0
        return _Entry(analysis, bounds)

    def _disk_store(self, fp: str, entry: _Entry) -> None:
        path = self._disk_path(fp)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(
                        (entry.analysis, entry.bounds),
                        fh,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp, path)  # atomic: readers never see partials
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            self._disk_fail(fp, exc, "store-failed")
        else:
            self._disk_error_streak = 0


def trim_quarantine(
    directory: pathlib.Path, cap: int = DEFAULT_MAX_QUARANTINE
) -> int:
    """Keep at most ``cap`` quarantined ``*.bad`` entries in ``directory``.

    Oldest entries (by mtime, fingerprint name breaking ties so the
    order is deterministic on coarse-clock filesystems) are unlinked
    first; already-gone files are skipped silently (another process may
    trim concurrently).  Returns the number of entries removed and, when
    anything was trimmed, emits a ``cache.quarantine_trimmed`` event and
    counter.  Shared by the analysis cache and the service's
    content-addressed result store.
    """
    if cap < 0:
        raise ValueError(f"quarantine cap must be >= 0, got {cap}")
    try:
        bad = list(pathlib.Path(directory).glob("*.bad"))
    except OSError:
        return 0
    if len(bad) <= cap:
        return 0

    def _age_key(path: pathlib.Path) -> Tuple[float, str]:
        try:
            return (path.stat().st_mtime, path.name)
        except OSError:
            return (0.0, path.name)

    bad.sort(key=_age_key)
    trimmed = 0
    for victim in bad[: len(bad) - cap]:
        try:
            victim.unlink()
            trimmed += 1
        except OSError:
            pass
    if trimmed:
        em = obs.get_emitter()
        if em.enabled:
            em.emit(
                "cache.quarantine_trimmed",
                directory=str(directory),
                trimmed=trimmed,
                cap=cap,
            )
            obs_metrics.registry().counter("cache.quarantine_trimmed").inc(
                trimmed
            )
    return trimmed


def _damage_entry(path: pathlib.Path, mode: str) -> None:
    """Fault-injection helper: damage an on-disk entry in place.

    ``truncate`` keeps the first half of the bytes (a partial write);
    anything else overwrites the entry with deterministic garbage.  A
    missing entry is left missing -- that is already a plain miss.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    else:
        path.write_bytes(b"\x00repro-injected-corruption\x00" + data[:32][::-1])


_cache = AnalysisCache()


def get_cache() -> AnalysisCache:
    """The process-global analysis cache."""
    return _cache


def set_cache(cache: AnalysisCache) -> AnalysisCache:
    """Install ``cache`` globally; returns the previous cache."""
    global _cache
    previous = _cache
    _cache = cache
    return previous


def set_cache_dir(path: Optional[Union[str, pathlib.Path]]) -> None:
    """Point the global cache's on-disk layer at ``path`` (None disables)."""
    _cache.cache_dir = pathlib.Path(path) if path else None


@contextmanager
def scoped(cache: Optional[AnalysisCache] = None) -> Iterator[AnalysisCache]:
    """Swap in a fresh (or given) cache for the block, restoring on exit."""
    fresh = cache if cache is not None else AnalysisCache()
    previous = set_cache(fresh)
    try:
        yield fresh
    finally:
        set_cache(previous)

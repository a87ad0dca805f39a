"""Per-layer tracing from the benchmark's own files.

:class:`Tracer` wraps each layer's public entry points (the
:data:`ENTRY_POINTS` table) in the process that runs them -- the
``repro serve`` process or a regeneration process -- and adds a
``gc.callbacks`` hook.  Spans are kept in memory and written once, at
drain or exit, by :meth:`Tracer.dump`; :func:`layer_metrics` turns a
dump into the per-layer metrics.

A span is ``(id, name, start, end, parent, request, extra)`` on the
``time.monotonic`` clock, which is system-wide, so spans compare with
the load generator's timestamps.  A request id is the id of the span
that began the request (``ServiceCore.submit`` or a ``run_*`` harness
call) and is shared by every span under it, including the spans of the
worker thread that executes a queued request: the tracer tags a job
with its request when it is offered to the admission queue and adopts
that request in the worker that takes it.

Two failures are loud on purpose, so a refactor cannot silently drop a
layer from the tables: a target that no longer resolves stops
:meth:`Tracer.install`, and :func:`check_fired` rejects a run in which
an entry point the per-layer table ties to the workload never fired.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

SERVE = frozenset({"serve-cold", "serve-hot"})
ARTIFACTS = frozenset({"artifacts"})
EVERY = SERVE | ARTIFACTS
COLD = frozenset({"serve-cold", "artifacts"})
HOT = frozenset({"serve-hot", "artifacts"})

#: ``(target, span name, kind, workloads that must reach it)``.  Kinds:
#: ``span`` is timed, ``count`` only counted (hot paths), ``offer`` and
#: ``take`` carry the request across the admission queue.
ENTRY_POINTS: Tuple[Tuple[str, str, str, frozenset], ...] = (
    ("repro.service.server:ServiceCore.submit", "service.submit", "span",
     SERVE),
    ("repro.service.protocol:parse_request", "service.parse_request",
     "span", SERVE),
    ("repro.service.protocol:outcome_payload", "service.payload", "span",
     SERVE),
    ("repro.service.store:ResultStore.get", "service.store_get", "span",
     SERVE),
    ("repro.service.store:ResultStore.put", "service.store_put", "span",
     SERVE),
    ("repro.service.admission:AdmissionQueue.offer", "service.offer",
     "offer", SERVE),
    ("repro.service.admission:AdmissionQueue.take", "service.take", "take",
     frozenset()),
    ("repro.ir.parser:parse_program", "ir.parse", "span", SERVE),
    ("repro.ir.validate:validate_program", "ir.validate", "span", SERVE),
    ("repro.core.analysis:analyze_thread", "core.analysis.analyze", "span",
     COLD),
    ("repro.core.bounds:estimate_bounds", "core.bounds.estimate", "span",
     COLD),
    ("repro.core.inter:allocate_threads", "core.inter.allocate", "span",
     EVERY),
    ("repro.core.inter:SharedDescent.result", "core.inter.descent", "span",
     frozenset()),
    ("repro.core.inter:SharedDescent.zero_cost_result",
     "core.inter.descent", "span", ARTIFACTS),
    ("repro.core.intra:IntraAllocator.probe_reduce_pr", "core.intra.probe",
     "count", HOT),
    ("repro.core.intra:IntraAllocator.probe_reduce_sr", "core.intra.probe",
     "count", HOT),
    ("repro.core.intra:IntraAllocator.probe_shift", "core.intra.probe",
     "count", HOT),
    ("repro.core.intra:IntraAllocator.commit", "core.intra.commit", "count",
     HOT),
    ("repro.core.intra:IntraAllocator.realize", "core.intra.realize",
     "span", ARTIFACTS),
    ("repro.core.assign:assign_physical", "core.assign.assign", "span",
     EVERY),
    ("repro.core.rewrite:rewrite_program", "core.rewrite.rewrite", "span",
     EVERY),
    ("repro.sim.fast:FastMachine.run", "sim.fast", "span", HOT),
    ("repro.sim.machine:Machine.run", "sim.reference", "span", ARTIFACTS),
    ("repro.sim.engine:create_machine", "sim.build", "span", HOT),
    ("repro.baseline.single_thread:allocate_pu_baseline",
     "baseline.chaitin", "span", ARTIFACTS),
    ("repro.baseline.single_thread:single_thread_register_count",
     "baseline.chaitin", "span", ARTIFACTS),
    ("repro.harness.table1:run_table1", "harness.table1", "span", ARTIFACTS),
    ("repro.harness.table2:run_table2", "harness.table2", "span", ARTIFACTS),
    ("repro.harness.table3:run_table3", "harness.table3", "span", ARTIFACTS),
    ("repro.harness.fig14:run_fig14", "harness.fig14", "span", ARTIFACTS),
)

#: Names of the spans that begin a request (their id is the request id).
ROOTS = frozenset({
    "service.submit", "harness.table1", "harness.table2", "harness.table3",
    "harness.fig14",
})

_JOB_ATTR = "_perfbench_request"


class TraceSetupError(RuntimeError):
    """An entry point of :data:`ENTRY_POINTS` no longer exists."""


def _resolve(target: str) -> Tuple[Any, str, Callable]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else \
        getattr(owner, attr, None)
    if not callable(fn):
        raise AttributeError(f"{target} is not a callable")
    return owner, attr, fn


def _machine_instructions(stats: Any) -> int:
    return sum(t.instructions for t in stats.threads)


#: Span name -> what to record from the call's result.
_RESULT_EXTRAS: Dict[str, Callable[[Any], Any]] = {
    "sim.fast": _machine_instructions,
    "sim.reference": _machine_instructions,
}


def _analysis_impl() -> str:
    from repro.core.dense import get_default_analysis_impl

    return get_default_analysis_impl()


def _cache_stats() -> Tuple[int, int, int]:
    from repro.core.cache import get_cache

    stats = get_cache().stats
    return stats.hits, stats.misses, stats.evictions


class Tracer:
    """Installs the wrappers and gc hook; holds the spans in memory."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.gc_pauses: List[Tuple[int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._gc_start = 0.0

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; raise :class:`TraceSetupError` naming
        each target that does not resolve, before wrapping anything."""
        resolved, missing = [], []
        for target, name, kind, _ in ENTRY_POINTS:
            try:
                resolved.append((target, name, kind, *_resolve(target)))
            except (ImportError, AttributeError) as exc:
                missing.append(f"{target} ({exc})")
        if missing:
            raise TraceSetupError(
                "traced entry points no longer exist: " + "; ".join(missing)
            )
        for target, name, kind, owner, attr, fn in resolved:
            wrapper = getattr(self, f"_wrap_{kind}")(fn, name)
            functools.update_wrapper(wrapper, fn)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                self._rebind(fn, wrapper)
        gc.callbacks.append(self._on_gc)

    @staticmethod
    def _rebind(fn: Callable, wrapper: Callable) -> None:
        """Point every ``from module import fn`` binding at the wrapper."""
        for module in list(sys.modules.values()):
            names = getattr(module, "__dict__", None)
            if not names or not getattr(module, "__name__", "").startswith(
                "repro"
            ):
                continue
            for key, value in list(names.items()):
                if value is fn:
                    names[key] = wrapper

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.monotonic()
        else:
            self.gc_pauses.append(
                (info["generation"], self._gc_start, time.monotonic())
            )

    # -- request context -------------------------------------------------
    def _context(self) -> Tuple[Optional[int], Optional[int]]:
        """``(parent span, request)`` for a span opening in this thread."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", (None, None))

    def _wrap_span(self, fn: Callable, name: str) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        extra_of = _RESULT_EXTRAS.get(name)
        is_root = name in ROOTS
        records_impl = name == "core.analysis.analyze"
        context = self._context

        def wrapper(*args, **kwargs):
            parent, request = context()
            sid = next(ids)
            if request is None and is_root:
                request = sid
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append((sid, request))
            extra = _analysis_impl() if records_impl else None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(result)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                if is_root:
                    extra = _cache_stats()
                spans.append((sid, name, start, end, parent, request, extra))

        return wrapper

    def _wrap_count(self, fn: Callable, name: str) -> Callable:
        counts, lock, context = self.counts, self._lock, self._context

        def wrapper(*args, **kwargs):
            request = context()[1]
            with lock:
                counts[(name, request)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_offer(self, fn: Callable, name: str) -> Callable:
        context, counts, lock = self._context, self.counts, self._lock

        def wrapper(queue, item, *args, **kwargs):
            ctx = context()
            setattr(item, _JOB_ATTR, ctx)
            with lock:
                counts[(name, ctx[1])] += 1
            return fn(queue, item, *args, **kwargs)

        return wrapper

    def _wrap_take(self, fn: Callable, name: str) -> Callable:
        local = self._local

        def wrapper(*args, **kwargs):
            item = fn(*args, **kwargs)
            local.adopted = getattr(item, _JOB_ATTR, (None, None))
            return item

        return wrapper

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        gc.callbacks.remove(self._on_gc)
        doc = {
            "spans": self.spans,
            "counts": [[n, r, c] for (n, r), c in self.counts.items()],
            "gc": self.gc_pauses,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ----------------------------------------------------------------------
# Aggregation (runs in the benchmark process).
# ----------------------------------------------------------------------
def _self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def select(
    dump: Dict[str, Any], window: Optional[Tuple[float, float]]
) -> Dict[str, Any]:
    """The part of a dump whose requests began inside ``window``."""
    spans = dump["spans"]
    if window is None:
        return dump
    lo, hi = window
    roots = {
        s[0] for s in spans if s[0] == s[5] and lo <= s[2] <= hi
    }
    before = [s for s in spans if s[0] == s[5] and s[2] < lo]
    return {
        "spans": [s for s in spans if s[5] in roots],
        "counts": [c for c in dump["counts"] if c[1] in roots],
        "gc": [g for g in dump["gc"] if lo <= g[1] <= hi],
        "cache_base": max(before, key=lambda s: s[3])[6] if before else None,
    }


def fired(part: Dict[str, Any]) -> Counter:
    """Calls per span name in a selected dump."""
    out = Counter(s[1] for s in part["spans"])
    for name, _, count in part["counts"]:
        out[name] += count
    return out


def check_fired(workload: str, part: Dict[str, Any]) -> List[str]:
    """Entry points the per-layer table ties to ``workload`` that never
    fired; an empty list means every expected layer was reached."""
    calls = fired(part)
    return sorted({
        f"{target} ({name})"
        for target, name, _, workloads in ENTRY_POINTS
        if workload in workloads and not calls[name]
    })


#: Timed span names; the per-layer metric ``<name>_s`` is the self time
#: of that span, summed.
TIMED = tuple(sorted({n for _, n, kind, _ in ENTRY_POINTS if kind == "span"}))


def _raw(part: Dict[str, Any]) -> Counter:
    """Additive per-layer quantities of one process's selected dump."""
    spans = part["spans"]
    self_time = _self_times(spans)
    by_name: Counter = Counter()
    for s in spans:
        by_name[s[1]] += self_time[s[0]]
    calls = fired(part)
    raw: Counter = Counter()
    for name in TIMED:
        raw[f"{name}_s"] = by_name[name]
    raw["ir.parse_calls"] = calls["ir.parse"]
    raw["ir.validate_calls"] = calls["ir.validate"]
    raw["core.analysis.analyze_calls"] = calls["core.analysis.analyze"]
    raw["core.analysis.reference_calls"] = sum(
        1 for s in spans
        if s[1] == "core.analysis.analyze" and s[6] == "reference"
    )
    raw["core.intra.probes"] = calls["core.intra.probe"]
    raw["commits"] = calls["core.intra.commit"]
    for engine in ("fast", "reference"):
        for s in spans:
            if s[1] == f"sim.{engine}":
                raw[f"{engine}.instructions"] += s[6]
                raw[f"{engine}.seconds"] += s[3] - s[2]
    roots = [s for s in spans if s[0] == s[5]]
    if roots:
        last = max(roots, key=lambda s: s[3])[6]
        base = part.get("cache_base") or (0, 0, 0)
        raw["cache.hits"] = last[0] - base[0]
        raw["cache.misses"] = last[1] - base[1]
        raw["core.cache.evictions"] = last[2] - base[2]
    raw["gc.pause_s"] = sum(end - start for _, start, end in part["gc"])
    raw["gc.gen2_collections"] = sum(1 for g in part["gc"] if g[0] == 2)
    return raw


def layer_metrics(parts: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics summed over the selected dumps of one run (one
    per traced process); service-side ones are added by the caller."""
    raw: Counter = Counter()
    for part in parts:
        raw.update(_raw(part))
    m = {f"{name}_s": raw[f"{name}_s"] for name in TIMED}
    for name in (
        "ir.parse_calls", "ir.validate_calls", "core.analysis.analyze_calls",
        "core.analysis.reference_calls", "core.intra.probes",
        "core.cache.evictions", "gc.pause_s", "gc.gen2_collections",
    ):
        m[name] = raw[name]
    probes = raw["core.intra.probes"]
    m["core.intra.commit_ratio"] = raw["commits"] / probes if probes else 0.0
    lookups = raw["cache.hits"] + raw["cache.misses"]
    m["core.cache.hit_ratio"] = raw["cache.hits"] / lookups if lookups else 0.0
    for engine in ("fast", "reference"):
        seconds = raw[f"{engine}.seconds"]
        m[f"sim.{engine}_mips"] = (
            raw[f"{engine}.instructions"] / seconds / 1e6 if seconds else 0.0
        )
    return m


def load_dump(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)

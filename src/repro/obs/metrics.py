"""Counters, gauges, and histograms in a context-scoped registry.

Metrics complement events: events answer *what happened, in order*,
metrics answer *how much, in total*, cheaply enough to leave on.  All
metric types are JSON-ready via :meth:`MetricsRegistry.snapshot`, and the
whole registry round-trips through ``json.dumps`` losslessly.

Naming convention (see ``docs/OBSERVABILITY.md``): dotted lowercase
``<layer>.<thing>``, e.g. ``inter.steps``, ``intra.recolors``,
``sim.cycles``.  Get-or-create accessors make call sites declaration-free::

    registry().counter("inter.steps").inc()
    registry().histogram("inter.step_delta").observe(delta)

Metrics optionally carry **labels** -- a small set of key/value pairs
passed as keyword arguments -- so one metric name becomes a family of
independent series that can be sliced after the fact::

    registry().counter("inter.steps", kind="pr").inc()
    registry().counter("sim.thread.busy_cycles", thread=2, kernel="md5").inc(n)

Label handling is deterministic: keys are sorted, values stringified,
and the snapshot key is the Prometheus-style ``name{k="v",...}`` form
(:func:`format_key` / :func:`parse_key` round-trip it).  Unlabeled call
sites are unchanged -- ``counter("x")`` is the same series it always
was -- and ``snapshot()`` ordering stays stable (plain string sort over
the full keys).  The conventional label keys are ``kernel``, ``engine``,
``thread``, ``impl``, ``site``, ``phase`` and ``kind``.

:func:`registry` is the current context's registry (:mod:`repro.scope`):
the process default, which ``/metrics`` serves, unless tests and
profilers that need isolation bound a fresh one with :func:`scoped`.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import (
    Any,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.scope import bind

#: Default histogram bucket upper bounds (values above the last bound land
#: in the overflow bucket).  Roughly log-spaced: decision costs, segment
#: lengths, and cycle counts all fit without configuration.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 10_000, 100_000,
)

#: Bucket bounds for *wall-clock seconds*.  :data:`DEFAULT_BUCKETS`
#: starts at ``0, 1, 2, ...``, so every sub-second observation -- which
#: is all of them, for span and phase timings -- collapses into one
#: bucket.  These fractional bounds resolve from 100 microseconds up to
#: a minute; pass them (or any per-histogram override) as the ``bounds``
#: argument of :meth:`MetricsRegistry.histogram`.
TIMING_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: A normalized label set: sorted key/value string pairs.
LabelPairs = Tuple[Tuple[str, str], ...]


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append("\n" if nxt == "n" else nxt)
    return "".join(out)


def normalize_labels(labels: Mapping[str, Any]) -> LabelPairs:
    """Sorted ``(key, str(value))`` pairs -- the canonical label form."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, labels: LabelPairs = ()) -> str:
    """The snapshot key: ``name`` or ``name{k="v",...}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels
    )
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, LabelPairs]:
    """Invert :func:`format_key`; plain names come back with ``()``."""
    brace = key.find("{")
    if brace < 0:
        return key, ()
    if not key.endswith("}"):
        raise ValueError(f"malformed metric key {key!r}")
    name = key[:brace]
    inner = key[brace + 1:-1]
    pairs: List[Tuple[str, str]] = []
    i = 0
    while i < len(inner):
        eq = inner.index("=", i)
        label = inner[i:eq]
        if inner[eq + 1] != '"':
            raise ValueError(f"malformed metric key {key!r}")
        j = eq + 2
        raw: List[str] = []
        while j < len(inner):
            ch = inner[j]
            if ch == "\\":
                raw.append(inner[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ValueError(f"malformed metric key {key!r}")
        pairs.append((label, _unescape_label_value("".join(raw))))
        i = j + 1
        if i < len(inner) and inner[i] == ",":
            i += 1
    return name, tuple(pairs)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution: count/sum/min/max plus fixed cumulative buckets."""

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "total",
        "min", "max",
    )

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        labels: LabelPairs = (),
    ):
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, self.bucket_counts)},
                "+inf": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Named metrics with get-or-create accessors.  Creation is atomic
    (``dict.setdefault``): threads racing to create a series share one."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        pairs = normalize_labels(labels) if labels else ()
        key = format_key(name, pairs)
        c = self._counters.get(key)
        if c is None:
            c = self._counters.setdefault(key, Counter(name, pairs))
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        pairs = normalize_labels(labels) if labels else ()
        key = format_key(name, pairs)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges.setdefault(key, Gauge(name, pairs))
        return g

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        pairs = normalize_labels(labels) if labels else ()
        key = format_key(name, pairs)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms.setdefault(
                key, Histogram(name, bounds, pairs)
            )
        return h

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of every metric (sorted for diffability).

        Labeled series appear under their ``name{k="v",...}`` key right
        after (string sort) the plain ``name`` series, so the ordering
        is stable run to run regardless of creation order.
        """
        return {
            "counters": {
                key: c.value for key, c in sorted(self._counters.items())
            },
            "gauges": {
                key: g.value for key, g in sorted(self._gauges.items())
            },
            "histograms": {
                key: h.snapshot()
                for key, h in sorted(self._histograms.items())
            },
        }


_registry = ContextVar("repro.obs.metrics.registry", default=MetricsRegistry())


def registry() -> MetricsRegistry:
    """The current context's registry."""
    return _registry.get()


def scoped(
    reg: Optional[MetricsRegistry] = None,
) -> ContextManager[MetricsRegistry]:
    """Bind a fresh (or given) registry for the block, restoring on exit."""
    return bind(_registry, reg if reg is not None else MetricsRegistry())

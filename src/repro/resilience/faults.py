"""Deterministic, seedable, context-scoped fault injection.

Production code paths carry cheap *hook points* -- a call to
:func:`fire` naming a **site** such as ``"service.store"`` or
``"sim.stuck"`` -- that return ``None`` unless a :class:`FaultPlan` is
armed for the current block.  Arming happens only through
:func:`inject`, which binds the plan in the current context (this
thread and the service jobs it submits, :mod:`repro.scope`)::

    with inject(FaultSpec("service.store", mode="corrupt"), seed=7) as plan:
        ...  # the next on-disk result-store read sees a damaged entry
    assert plan.fired  # the fault actually triggered

Everything is deterministic: a plan owns a single ``random.Random``
seeded at construction, specs fire on exact hit counts (``after`` /
``count``), and sites draw any randomness they need (e.g. which bit to
flip) from the plan's RNG -- the same seed replays the same faults.

Every triggered fault is tagged twice so tests and the chaos harness
can assert it was either *masked* or surfaced as a typed
:class:`~repro.errors.ReproError`:

* a ``fault.injected`` telemetry event (site, mode, hit number) when a
  capture is active, plus a ``fault.injected`` metric counter;
* an always-on :class:`FaultRecord` appended to ``plan.fired``.

Known sites (the hook points threaded through the tree):

=====================  ====================================================
site                   where / what
=====================  ====================================================
``pipeline.analyze``   :func:`repro.core.pipeline.allocate_programs`
                       analyze phase; mode ``transient`` raises
                       :class:`~repro.errors.TransientError`
``sim.bitflip``        both engines, at context-switch boundaries; flips
                       one RNG-chosen bit of one physical register
``sim.stuck``          both engines, at memory blocks; the thread's wake
                       time moves past any plausible ``max_cycles`` so
                       only the watchdog can end the run
``service.handler``    :mod:`repro.service.server` worker loop, after a
                       request is dequeued and before the pipeline runs;
                       mode ``error`` raises
                       :class:`~repro.errors.InjectedFault`, which the
                       service converts into a typed error envelope
``service.store``      :class:`repro.service.store.ResultStore` reads and
                       writes; mode ``corrupt`` damages the on-disk entry,
                       mode ``error`` raises :class:`OSError` (absorbed by
                       the store breaker -- requests still succeed)
=====================  ====================================================
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.scope import bind

#: Wake delay used by the ``sim.stuck`` site: far past any plausible
#: ``max_cycles`` so the blocked thread never becomes ready again and
#: only the cycle watchdog can end the run.
STUCK_DELAY = 1 << 62


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire at ``site`` on specific hook hits.

    Attributes:
        site: hook-point name (see the module table).
        mode: site-specific behaviour (``corrupt``, ``transient``,
            ``error``, ``bitflip``, ``stuck`` -- each site documents its
            modes).
        after: skip this many eligible hits before the first fire.
        count: fire at most this many times (0 disables the spec).
        prob: probability of firing on an eligible hit, drawn from the
            plan's seeded RNG; 1.0 (the default) keeps firing exact.
    """

    site: str
    mode: str = "error"
    after: int = 0
    count: int = 1
    prob: float = 1.0


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired (always recorded, telemetry or not)."""

    site: str
    mode: str
    hit: int  #: 1-based hit number at the site when the fault fired
    context: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "mode": self.mode,
            "hit": self.hit,
            **dict(self.context),
        }


class FaultPlan:
    """A set of :class:`FaultSpec` plus the bookkeeping to fire them.

    Plans are armed with :func:`inject`; hook points reach the armed
    plan through :func:`active` / :func:`fire`.  ``rng`` is the single
    seeded source of randomness for both the firing decision
    (``prob < 1``) and any site-level choices (bit positions, register
    indices), so one seed replays one fault history exactly.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self.rng = random.Random(seed)
        self.hits: Dict[str, int] = {}
        self.fired: List[FaultRecord] = []
        self._remaining: Dict[int, int] = {
            i: s.count for i, s in enumerate(self.specs)
        }

    def fire(self, site: str, **context: Any) -> Optional[FaultSpec]:
        """Count a hook hit at ``site``; return the spec that fires, if any.

        The hit is counted once per call regardless of how many specs
        watch the site; the first eligible spec (declaration order)
        wins.  Firing appends a :class:`FaultRecord` and emits a
        ``fault.injected`` telemetry event.
        """
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        for i, spec in enumerate(self.specs):
            if spec.site != site or self._remaining[i] <= 0:
                continue
            if hit <= spec.after:
                continue
            if spec.prob < 1.0 and self.rng.random() >= spec.prob:
                continue
            self._remaining[i] -= 1
            record = FaultRecord(
                site=site,
                mode=spec.mode,
                hit=hit,
                context=tuple(sorted(context.items())),
            )
            self.fired.append(record)
            em = obs.get_emitter()
            if em.enabled:
                em.emit("fault.injected", **record.to_dict())
                obs_metrics.registry().counter("fault.injected").inc()
            return spec
        return None

    def fired_at(self, site: str) -> List[FaultRecord]:
        return [r for r in self.fired if r.site == site]


_active: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro.resilience.faults.plan", default=None
)


def active() -> Optional[FaultPlan]:
    """The armed plan, or ``None`` (the overwhelmingly common case)."""
    return _active.get()


def fire(site: str, **context: Any) -> Optional[FaultSpec]:
    """Hook-point helper: fire against the armed plan, if any.

    Cheap when disarmed -- one context-variable read and a ``None``
    check -- so hook points on warm paths can call it unconditionally.
    Hot loops (the simulators) should instead grab :func:`active` once
    per run and skip their fault branches entirely when it is ``None``.
    """
    plan = _active.get()
    if plan is None:
        return None
    return plan.fire(site, **context)


def inject(*specs: FaultSpec, seed: int = 0) -> ContextManager[FaultPlan]:
    """Arm a plan of ``specs`` for the duration of the block.

    The previous plan (normally none) is restored on exit, even on
    error, so injections scope cleanly and never leak into unrelated
    code -- including across test boundaries and into other threads.
    """
    return bind(_active, FaultPlan(specs, seed=seed))


def suspended() -> ContextManager[None]:
    """Disarm fault injection for the block (restored on exit).

    Used by the independent verifier: its *oracle* runs must see the
    true machine, not the faulted one, or a corrupted oracle would mask
    real divergence (or report phantom divergence).  Other threads'
    plans stay armed.
    """
    return bind(_active, None)

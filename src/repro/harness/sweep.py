"""Parallel sweep executor for embarrassingly parallel harness points.

Every paper artifact is a sweep: Table 1 over kernels, Table 2 over
kernels at their lower bounds, Table 3 over scenarios, Figure 14 over
benchmarks, the ablation over register budgets.  The points are
independent, so :func:`sweep_map` runs them through a
``ProcessPoolExecutor`` while keeping the results in submission order --
the output is positionally identical to ``[fn(x) for x in items]``.

Degradation is deliberate and quiet-but-visible -- the
``sweep.parallel_to_serial`` rung of the ladder in
:mod:`repro.resilience.guard`:

* ``jobs <= 1`` (or a single item) runs serially with no pool at all --
  the default, and the only mode used by tier-1 tests;
* a pool that cannot be *built or fed* (fork unavailable, unpicklable
  worker, a worker killed by the OS) emits a ``RuntimeWarning`` plus
  ``sweep.fallback`` / ``resilience.degrade`` telemetry and finishes
  the sweep serially -- but **only the items that have no result yet**
  are rerun.  Items whose futures already completed keep their pool
  results, so side effects (and telemetry) are not double-counted for
  work that succeeded before the pool broke.  The only way to lose
  results is a genuine error in ``fn`` itself -- which then raises
  exactly as it would have serially.
* ``timeout`` bounds the whole parallel phase in wall seconds; on
  expiry the pool is abandoned (``cancel_futures``) and the missing
  items run serially.  An item genuinely hung *inside* ``fn`` will
  then hang the serial rerun too -- the timeout protects against stuck
  pool infrastructure, not against a non-terminating ``fn``.

Workers must be module-level callables (picklable); pair with
``functools.partial`` to bind per-sweep constants.  The parent-side
result harvest carries the ``sweep.pool`` fault-injection site
(:mod:`repro.resilience.faults`): mode ``crash`` breaks the pool,
mode ``hang`` expires the timeout.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import faults, guard

T = TypeVar("T")
R = TypeVar("R")

#: Pool-infrastructure failures that trigger the serial fallback.  A
#: worker raising an application error (e.g. ``AllocationError``) is
#: NOT meant to be in this set -- though even if one overlaps (an
#: ``fn`` legitimately raising ``AttributeError``/``TypeError``), the
#: serial rerun re-raises it faithfully, just without the pool.
#: ``AttributeError``/``TypeError`` are here because that is what the
#: multiprocessing feeder surfaces for unpicklable callables (lambdas,
#: closures) instead of ``PicklingError``.
_POOL_FAILURES: tuple = (
    OSError,
    NotImplementedError,
    ImportError,
    AttributeError,
    TypeError,
)


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the visible CPU count."""
    return os.cpu_count() or 1


def _pool_failure_types() -> tuple:
    """Lazily extend :data:`_POOL_FAILURES` with concurrent.futures types."""
    try:
        from concurrent.futures.process import BrokenProcessPool

        return _POOL_FAILURES + (BrokenProcessPool, pickle.PicklingError)
    except ImportError:  # pragma: no cover - stdlib always has it
        return _POOL_FAILURES + (pickle.PicklingError,)


def _note_fallback(label: str, reason: str, missing: int) -> None:
    warnings.warn(
        f"sweep {label!r}: process pool unavailable ({reason}); "
        f"finishing {missing} item(s) serially",
        RuntimeWarning,
        stacklevel=3,
    )
    guard.record_degradation(
        "sweep.parallel_to_serial", reason=reason, label=label, missing=missing
    )
    em = obs.get_emitter()
    if em.enabled:
        em.emit("sweep.fallback", label=label, reason=reason, missing=missing)
        obs_metrics.registry().counter("sweep.fallback").inc()


class _ChunkTask:
    """Picklable wrapper running a whole *chunk* of items in one worker.

    Chunked submission amortizes pickle/IPC overhead: one future per
    chunk instead of one per item.  Child processes start with a fresh
    (empty, disabled) telemetry state, so whatever a worker records would
    normally die with the worker.  When the parent has an active emitter,
    each item runs under its own scoped registry **and** an active
    capture emitter -- so the worker takes the same instrumented code
    paths the parent would serially (engine auto-selection included) --
    and comes back as ``(result, snapshot)``.  The parent merges each
    snapshot into its own registry labeled by sweep and item index
    (``{sweep="...",item="N"}``), whatever the chunk size.
    """

    __slots__ = ("fn", "telemetry")

    def __init__(self, fn: Callable[[T], R], telemetry: bool):
        self.fn = fn
        self.telemetry = telemetry

    def __call__(self, chunk: List[T]) -> list:
        out: list = []
        for item in chunk:
            if self.telemetry:
                with obs_metrics.scoped() as reg, obs.capture():
                    result = self.fn(item)
                out.append((result, reg.snapshot()))
            else:
                out.append(self.fn(item))
        return out


def _merge_worker_snapshot(label: str, index: int, snap: dict) -> None:
    obs_metrics.registry().merge_snapshot(
        snap, labels={"sweep": label, "item": index}
    )


def _fire_pool_fault() -> None:
    """Parent-side ``sweep.pool`` fault site (consulted per harvested
    result): simulate the pool breaking or a worker hanging."""
    spec = faults.fire("sweep.pool")
    if spec is None:
        return
    if spec.mode == "hang":
        from concurrent.futures import TimeoutError as FuturesTimeout

        raise FuturesTimeout("injected worker hang")
    from concurrent.futures.process import BrokenProcessPool

    raise BrokenProcessPool("injected pool crash")


def sweep_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    label: str = "sweep",
    timeout: Optional[float] = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, parallel over ``jobs`` processes.

    Results come back in submission order regardless of completion
    order, so a parallel sweep is positionally indistinguishable from
    the serial one.  See the module docstring for the fallback rules.

    ``chunksize`` groups items per pool submission (default heuristic
    ``max(1, len(items) // (jobs * 4))``) to cut pickle/IPC overhead on
    large fine-grained sweeps; order, telemetry labels, and fallback
    semantics are the same for every chunk size.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: List[Optional[R]] = [None] * len(items)
    done = [False] * len(items)
    try:
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures import as_completed
        from concurrent.futures import ProcessPoolExecutor
    except ImportError as exc:  # pragma: no cover - stdlib always has it
        _note_fallback(label, f"{type(exc).__name__}: {exc}", len(items))
        return [fn(item) for item in items]

    # With an active parent emitter, ship each worker's metrics home
    # (see _ChunkTask); the serial fallback path below calls the bare
    # ``fn``, which records into the parent registry directly.
    telemetry = obs.get_emitter().enabled
    if chunksize is None:
        chunksize = max(1, len(items) // (jobs * 4))
    chunksize = max(1, chunksize)
    task = _ChunkTask(fn, telemetry)
    units = [
        (start, items[start : start + chunksize])
        for start in range(0, len(items), chunksize)
    ]

    def harvest_unit(start: int, raw: list) -> None:
        for i, payload in enumerate(raw, start):
            if done[i]:
                continue  # never double-merge telemetry for an item
            if telemetry:
                payload, snap = payload
                _merge_worker_snapshot(label, i, snap)
            results[i] = payload
            done[i] = True

    pool = None
    futures: dict = {}
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(units)))
        futures = {
            pool.submit(task, unit): start for start, unit in units
        }
        for future in as_completed(futures, timeout=timeout):
            harvest_unit(futures[future], future.result())  # errors re-raise
            _fire_pool_fault()
        pool.shutdown(wait=True)
        return list(results)  # type: ignore[arg-type]
    except (_pool_failure_types() + (FuturesTimeout,)) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        if pool is not None:
            if isinstance(exc, FuturesTimeout):
                # Abandon a (possibly hung) pool without waiting on it.
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        # Harvest futures that finished despite the failure: their work
        # is done and must not be re-executed (double side effects).
        for future, start in futures.items():
            if not future.done() or future.cancelled():
                continue
            try:
                harvest_unit(start, future.result(timeout=0))
            except BaseException:
                pass  # rerun the chunk's unharvested items serially
        missing = [i for i, ok in enumerate(done) if not ok]
        _note_fallback(label, reason, len(missing))
        for i in missing:
            results[i] = fn(items[i])
        return list(results)  # type: ignore[arg-type]

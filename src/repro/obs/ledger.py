"""The run ledger: an append-only JSONL store of benchmark measurements.

Every finished bench run -- ``pytest benchmarks/bench_*.py``, every
``repro bench`` invocation and CI's perf smoke -- is kept by
:func:`repro.harness.trend.record`, which appends one schema-versioned
row per watched experiment, next to the ``BENCH_*.json`` snapshots.
Where a ``BENCH_*.json`` file holds *one* (committed, reproducible)
measurement, the ledger accumulates the *trajectory* of measurements
across runs and machines; the regression sentinel
(:mod:`repro.harness.trend`, ``repro bench trend``) reads both to
decide whether a watched metric regressed.

Row shape (``schema: repro.ledger/1``)::

    {"schema": "repro.ledger/1", "bench": "perf",
     "ts": 1754550000.0, "commit": "79a5f3d",
     "config": {},
     "metrics": {"sim.speedup": 5.79, ...}}

``ts`` and ``commit`` are **caller-supplied** (wall time and VCS state
are the caller's business -- the library never calls ``time.time`` or
``git`` itself); :func:`default_commit` just reads the conventional
environment variables.  ``metrics`` holds the watched scalar values for
this bench (see :data:`repro.harness.trend.WATCHED`), ``config``
whatever knobs shaped the run.

The store is plain JSON Lines: one compact object per line, appended
with a single ``write`` so concurrent appenders interleave at line
granularity.  :func:`read` recovers from a corrupt or truncated tail
(the realistic failure: a killed process mid-append) by keeping every
complete leading row and warning about the rest.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.export import to_jsonable

SCHEMA_LEDGER = "repro.ledger/1"

#: Environment override for the ledger location.
ENV_LEDGER = "REPRO_LEDGER"

#: Default location, relative to the repo root / current directory --
#: next to the committed ``BENCH_*.json`` artifacts (but NOT committed
#: itself; rows carry timestamps and machine-dependent timings).
DEFAULT_RELPATH = pathlib.Path("benchmarks") / "out" / "ledger.jsonl"

PathLike = Union[str, pathlib.Path]


def default_path() -> pathlib.Path:
    """The ledger path: ``$REPRO_LEDGER`` or ``benchmarks/out/ledger.jsonl``."""
    env = os.environ.get(ENV_LEDGER)
    return pathlib.Path(env) if env else DEFAULT_RELPATH


def default_commit() -> Optional[str]:
    """The commit id from the conventional environment variables
    (``REPRO_COMMIT``, then CI's ``GITHUB_SHA``), or None."""
    return os.environ.get("REPRO_COMMIT") or os.environ.get("GITHUB_SHA")


def make_row(
    bench: str,
    metrics: Mapping[str, float],
    *,
    config: Optional[Mapping[str, Any]] = None,
    ts: Optional[float] = None,
    commit: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one schema-versioned ledger row (strict-JSON-ready)."""
    if not bench:
        raise ValueError("ledger rows need a non-empty bench name")
    return {
        "schema": SCHEMA_LEDGER,
        "bench": bench,
        "ts": ts,
        "commit": commit if commit is not None else default_commit(),
        "config": to_jsonable(dict(config) if config else {}),
        "metrics": {k: to_jsonable(v) for k, v in sorted(metrics.items())},
    }


def append(
    row: Union[Mapping[str, Any], Iterable[Mapping[str, Any]]],
    path: Optional[PathLike] = None,
) -> pathlib.Path:
    """Append one row (or an iterable of rows) to the ledger.

    Creates the file and parent directories on first use.  Each row is
    one compact JSON line; returns the ledger path.
    """
    out = pathlib.Path(path) if path is not None else default_path()
    rows = [row] if isinstance(row, Mapping) else list(row)
    lines = []
    for r in rows:
        if r.get("schema") != SCHEMA_LEDGER:
            raise ValueError(
                f"refusing to append a row without schema "
                f"{SCHEMA_LEDGER!r}: {r.get('schema')!r} (use make_row)"
            )
        lines.append(
            json.dumps(
                to_jsonable(r), separators=(",", ":"), allow_nan=False
            )
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return out


def read(
    path: Optional[PathLike] = None, strict: bool = False
) -> List[Dict[str, Any]]:
    """Load every row of the ledger; ``[]`` when it does not exist.

    An unparsable line (a truncated tail from a killed appender, or
    plain corruption) ends the scan: every complete row *before* it is
    returned, the rest is dropped with a :class:`RuntimeWarning` --
    append-only logs are only ever damaged at the end, so rows after a
    bad line are not trusted either.  ``strict=True`` raises
    :class:`ValueError` instead.  Rows with an unknown schema are kept
    (forward compatibility) but unknown top-level shapes (non-objects)
    count as corruption.
    """
    src = pathlib.Path(path) if path is not None else default_path()
    if not src.exists():
        return []
    rows: List[Dict[str, Any]] = []
    with src.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                row = json.loads(text)
                if not isinstance(row, dict):
                    raise ValueError(f"row is {type(row).__name__}, not object")
            except ValueError as exc:
                message = (
                    f"ledger {src}: line {lineno} is corrupt ({exc}); "
                    f"keeping the {len(rows)} complete row(s) before it"
                )
                if strict:
                    raise ValueError(message) from exc
                warnings.warn(message, RuntimeWarning, stacklevel=2)
                break
            rows.append(row)
    return rows

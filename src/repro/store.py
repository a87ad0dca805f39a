"""The content-addressed store mechanisms.  The analysis cache
(:mod:`repro.core.cache`) keeps its entries in the locked :class:`LRU`.
The service's result store (:mod:`repro.service.store`) keeps its codec,
failure policy, fault site and telemetry, and takes the rest from here
-- the :class:`LRU`, hex keys (:func:`entry_path`), the atomic
:func:`write` (a reader in any process sees an entry absent or
complete), :func:`read` with its one decode rule and capped ``*.bad``
quarantine, and the :func:`damage` fault helper.  No lock here is held
across disk I/O."""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.obs import events as obs
from repro.obs import metrics as obs_metrics

#: Quarantined (``*.bad``) entries kept per store directory; beyond it
#: the oldest are unlinked, so a flaky disk cannot grow it without bound.
DEFAULT_MAX_QUARANTINE = 32


class LRU:
    """A least-recently-used map with its own lock.  :meth:`get` moves a
    found entry to the front (``None`` is a miss, so no value may be
    ``None``); :meth:`put` evicts the oldest entries past ``capacity``
    and returns how many it evicted."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> int:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            evicted = 0
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
                evicted += 1
            return evicted

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items


class Rejected(Exception):
    """An entry the client's decoder refused: ``cause`` is its error,
    ``action`` what became of the file (``quarantined``, ``deleted`` or
    ``left-in-place``)."""

    def __init__(self, cause: Exception, action: str):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.cause, self.action = cause, action


def entry_path(
    root: Optional[pathlib.Path], key: str, suffix: str
) -> Optional[pathlib.Path]:
    """``root/<key><suffix>``, or ``None`` without a ``root``; raises
    :class:`ValueError` unless ``key`` is a lowercase hex digest."""
    if root is None:
        return None
    if not key or key.strip("0123456789abcdef"):
        raise ValueError(f"malformed store key {key!r}")
    return root / f"{key}{suffix}"


def write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically, creating its directory; on
    failure the temp file is removed and the error propagates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read(path: pathlib.Path, decode: Callable[[bytes], Any]) -> Any:
    """``decode`` of the entry at ``path``, or ``None`` when it is absent.
    Anything ``decode`` raises -- a torn or foreign file, valid data of
    the wrong shape -- quarantines the entry and is re-raised as
    :class:`Rejected`; I/O errors propagate, to the client's policy."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        return decode(data)
    except Exception as exc:  # noqa: BLE001 - a decoder may raise anything
        raise Rejected(exc, _quarantine(path)) from exc


def _quarantine(path: pathlib.Path) -> str:
    try:
        os.replace(path, path.with_suffix(".bad"))
    except OSError:
        try:
            path.unlink()
            return "deleted"
        except OSError:
            return "left-in-place"
    trim_quarantine(path.parent, DEFAULT_MAX_QUARANTINE)
    return "quarantined"


def trim_quarantine(
    directory: pathlib.Path, cap: int = DEFAULT_MAX_QUARANTINE
) -> int:
    """Keep at most ``cap`` ``*.bad`` entries in ``directory``, unlinking
    the oldest first (by mtime, then name, so the order is deterministic
    on coarse-clock filesystems; files already gone are skipped, since
    another process may trim concurrently).  Returns how many it removed
    and, if any, counts them in ``cache.quarantine_trimmed`` and emits
    that event under a capture."""
    if cap < 0:
        raise ValueError(f"quarantine cap must be >= 0, got {cap}")
    try:
        bad = list(pathlib.Path(directory).glob("*.bad"))
    except OSError:
        return 0
    trimmed = 0
    for victim in sorted(bad, key=_age)[: max(len(bad) - cap, 0)]:
        try:
            victim.unlink()
            trimmed += 1
        except OSError:
            pass
    if trimmed:
        obs_metrics.registry().counter("cache.quarantine_trimmed").inc(trimmed)
        obs.emit("cache.quarantine_trimmed", directory=str(directory),
                 trimmed=trimmed, cap=cap)
    return trimmed


def _age(path: pathlib.Path) -> Tuple[float, str]:
    try:
        return (path.stat().st_mtime, path.name)
    except OSError:
        return (0.0, path.name)


def damage(path: pathlib.Path) -> None:
    """Fault-injection helper: overwrite an entry in place with
    deterministic garbage.  A missing entry stays missing."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    path.write_bytes(b"\x00repro-injected-corruption\x00" + data[:32][::-1])

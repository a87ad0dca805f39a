"""Content-addressed result store: idempotent responses across restarts.

Completed response payloads are stored under their request key (sha256
of program fingerprints + canonical options), in two layers:

* an in-memory LRU overlay, always on;
* an optional on-disk layer (``<root>/<key>.json``, atomic
  temp-file + ``os.replace`` writes) that makes replay idempotent
  across worker restarts -- a client retrying after a crash gets the
  byte-identical payload without a second pipeline execution.

The disk format is canonical JSON (sorted keys, compact separators)
wrapped in a one-line header object, so entries are greppable and
diffable; a corrupt or foreign entry is quarantined to ``*.bad`` and
treated as a miss, with the quarantine capped by the same
oldest-first trim as the analysis cache
(:func:`repro.core.cache.trim_quarantine`).

The service's worker and HTTP threads share one store.  One lock
guards the memory overlay's bookkeeping (look-up and touch, insert and
evict); it is never held across disk I/O.

Failure policy: store trouble **never fails a request** -- the service
core wraps every call in the ``store`` circuit breaker; repeated
failures trip the ``service.store_to_memory`` rung and the store keeps
serving from memory.  The ``service.store`` fault site lets the chaos
harness damage entries (mode ``corrupt``) or fail I/O outright (mode
``error``).
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Union

from repro.core.cache import DEFAULT_MAX_QUARANTINE, trim_quarantine
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import faults

SCHEMA_STORE = "repro.service.store/1"

#: Default in-memory overlay capacity (entries).
DEFAULT_MEMORY_ENTRIES = 256


class ResultStore:
    """Two-layer (memory + optional disk) content-addressed store."""

    def __init__(
        self,
        root: Optional[Union[str, pathlib.Path]] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        max_quarantine: int = DEFAULT_MAX_QUARANTINE,
    ):
        if memory_entries < 1:
            raise ValueError(
                f"memory_entries must be >= 1, got {memory_entries}"
            )
        self.root = pathlib.Path(root) if root else None
        self.memory_entries = memory_entries
        self.max_quarantine = max_quarantine
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _note(self, result: str) -> None:
        obs_metrics.registry().counter("service.store", result=result).inc()

    def _path(self, key: str) -> Optional[pathlib.Path]:
        if self.root is None:
            return None
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def recall(self, key: str) -> Optional[Dict[str, Any]]:
        """The memory overlay's payload for ``key``, or ``None``; never
        touches the disk."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
            return payload

    def remember(self, key: str, payload: Dict[str, Any]) -> None:
        """Put ``payload`` in the memory overlay only, evicting the
        least recently used entries past its capacity."""
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None``.

        Raises on disk trouble (including injected ``service.store``
        faults in ``error`` mode) -- the caller's circuit breaker owns
        the failure policy.  A corrupt entry is quarantined and
        reported as a miss, not an error: the payload is gone either
        way and recomputing is the fix.
        """
        cached = self.recall(key)
        if cached is not None:
            self._note("memory-hit")
            return cached
        path = self._path(key)
        if path is None or not path.exists():
            self._note("miss")
            return None
        spec = faults.fire("service.store", op="get", key=key[:12])
        if spec is not None:
            if spec.mode == "corrupt":
                path.write_bytes(b"\x00not-json\x00")
            else:
                raise OSError(f"injected store read failure for {key[:12]}")
        try:
            doc = json.loads(path.read_text())
            if doc.get("schema") != SCHEMA_STORE or doc.get("key") != key:
                raise ValueError(f"foreign or mismatched entry in {path}")
            payload = doc["payload"]
            if not isinstance(payload, dict):
                raise ValueError(f"malformed payload in {path}")
        except (ValueError, KeyError) as exc:
            action = self._quarantine(path)
            em = obs.get_emitter()
            if em.enabled:
                em.emit(
                    "service.store_error",
                    key=key[:12],
                    error=f"{type(exc).__name__}: {exc}",
                    action=action,
                )
            self._note("corrupt")
            return None
        self.remember(key, payload)
        self._note("disk-hit")
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (memory always, disk if rooted).

        Disk writes are atomic (temp file + ``os.replace``), so readers
        and concurrent writers never see partial entries; identical
        concurrent writes are benign -- the content is the same bytes.
        Raises on disk trouble; the memory overlay is already updated
        by then, so the caller's breaker can absorb the failure without
        losing the result for this process's lifetime.
        """
        self.remember(key, payload)
        path = self._path(key)
        if path is None:
            self._note("memory-put")
            return
        spec = faults.fire("service.store", op="put", key=key[:12])
        if spec is not None:
            raise OSError(f"injected store write failure for {key[:12]}")
        doc = {"schema": SCHEMA_STORE, "key": key, "payload": payload}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._note("put")

    def _quarantine(self, path: pathlib.Path) -> str:
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

    def __len__(self) -> int:
        return len(self._memory)
